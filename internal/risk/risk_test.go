package risk

import (
	"errors"
	"testing"

	"marketminer/internal/portfolio"
)

func buy(stock, shares int, price float64) portfolio.Order {
	return portfolio.Order{Stock: stock, Side: portfolio.Buy, Shares: shares, Price: price}
}

func sell(stock, shares int, price float64) portfolio.Order {
	return portfolio.Order{Stock: stock, Side: portfolio.Sell, Shares: shares, Price: price}
}

// apply sends one order through the pair path as a one-leg basket.
func apply(m *Manager, o portfolio.Order) error { return m.ApplyPair([]portfolio.Order{o}) }

func TestUnlimitedAcceptsEverything(t *testing.T) {
	m, err := NewManager(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := apply(m, buy(i%3, 1000, 500)); err != nil {
			t.Fatalf("unlimited manager rejected: %v", err)
		}
	}
	if m.Accepted() != 100 || m.TotalRejected() != 0 {
		t.Errorf("accepted=%d rejected=%d", m.Accepted(), m.TotalRejected())
	}
}

func TestNewManagerRejectsNegativeLimits(t *testing.T) {
	if _, err := NewManager(Limits{MaxOrders: -1}); err == nil {
		t.Error("negative limit should error")
	}
}

func TestGrossExposureLimit(t *testing.T) {
	m, _ := NewManager(Limits{MaxGrossExposure: 1000})
	if err := apply(m, buy(0, 9, 100)); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	err := apply(m, buy(1, 5, 100)) // would take gross to 1400
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != GrossExposure {
		t.Fatalf("want gross-exposure rejection, got %v", err)
	}
	if m.Rejected(GrossExposure) != 1 {
		t.Errorf("Rejected(GrossExposure) = %d", m.Rejected(GrossExposure))
	}
	if g := m.Book().GrossExposure(); g != 900 {
		t.Errorf("gross exposure = %v, want the 900 accepted", g)
	}
}

func TestStockConcentrationLimit(t *testing.T) {
	m, _ := NewManager(Limits{MaxStockShares: 10})
	if err := apply(m, buy(0, 10, 5)); err != nil {
		t.Fatal(err)
	}
	err := apply(m, buy(0, 1, 5))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != StockConcentration {
		t.Fatalf("want concentration rejection, got %v", err)
	}
	// Short side is symmetric.
	if err := apply(m, sell(1, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, sell(1, 1, 5)); err == nil {
		t.Fatal("short concentration not enforced")
	}
}

func TestOrderNotionalLimit(t *testing.T) {
	m, _ := NewManager(Limits{MaxOrderNotional: 500})
	if err := apply(m, buy(0, 4, 100)); err != nil {
		t.Fatal(err)
	}
	err := apply(m, buy(1, 6, 100))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != OrderNotional {
		t.Fatalf("want notional rejection, got %v", err)
	}
}

func TestOrderBudget(t *testing.T) {
	m, _ := NewManager(Limits{MaxOrders: 2})
	if err := apply(m, buy(0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, buy(1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	err := apply(m, buy(2, 1, 10))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != OrderBudget {
		t.Fatalf("want budget rejection, got %v", err)
	}
}

func TestClosingOrdersAlwaysAllowed(t *testing.T) {
	m, _ := NewManager(Limits{MaxGrossExposure: 1000, MaxOrders: 1, MaxStockShares: 10})
	if err := apply(m, buy(0, 10, 100)); err != nil {
		t.Fatal(err)
	}
	// Every limit is now saturated, but the closing sell must pass.
	if err := apply(m, sell(0, 10, 100)); err != nil {
		t.Fatalf("closing order rejected: %v", err)
	}
	if !m.Book().Flat() {
		t.Error("book should be flat")
	}
}

func TestCheckDoesNotMutate(t *testing.T) {
	m, _ := NewManager(Limits{MaxOrders: 5})
	for i := 0; i < 10; i++ {
		m.Check(buy(0, 1, 10))
	}
	if m.Accepted() != 0 || m.TotalRejected() != 0 {
		t.Error("Check must not count")
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		Accepted: "accepted", GrossExposure: "gross-exposure",
		StockConcentration: "stock-concentration", OrderNotional: "order-notional",
		OrderBudget: "order-budget", Reason(9): "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}

func TestErrRejectedMessage(t *testing.T) {
	e := &ErrRejected{Reason: OrderNotional, Order: buy(3, 7, 42)}
	msg := e.Error()
	for _, want := range []string{"order-notional", "buy", "7", "42"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestApplyPairAtomic(t *testing.T) {
	m, _ := NewManager(Limits{MaxStockShares: 5})
	legs := []portfolio.Order{buy(0, 3, 10), sell(1, 10, 10)} // second leg breaches
	err := m.ApplyPair(legs)
	var rej *ErrRejected
	if !errors.As(err, &rej) {
		t.Fatalf("want rejection, got %v", err)
	}
	if m.Book().NetShares(0) != 0 {
		t.Error("rejected basket must leave the book untouched")
	}
	if m.TotalRejected() != 2 {
		t.Errorf("rejected legs = %d, want 2", m.TotalRejected())
	}
	// A compliant basket applies fully.
	if err := m.ApplyPair([]portfolio.Order{buy(0, 3, 10), sell(1, 4, 10)}); err != nil {
		t.Fatal(err)
	}
	if m.Accepted() != 2 {
		t.Errorf("accepted = %d", m.Accepted())
	}
}

func TestApplyClosingPairBypassesChecks(t *testing.T) {
	m, _ := NewManager(Limits{MaxGrossExposure: 1, MaxOrders: 1, MaxStockShares: 1})
	// Exceeds every limit, but closing flow must pass.
	if err := m.ApplyClosingPair([]portfolio.Order{sell(0, 50, 100), buy(1, 50, 100)}); err != nil {
		t.Fatalf("closing pair rejected: %v", err)
	}
	if m.Book().NetShares(0) != -50 || m.Book().NetShares(1) != 50 {
		t.Error("closing legs not applied")
	}
}

// Package risk implements the master-process risk controls of the
// paper's Figure 1: "the outputs from each strategy (trade decisions)
// can be gathered by a master process to perform additional tasks such
// as risk management and liquidity provisioning".
//
// A Manager sits between the strategy nodes and the execution book:
// every order request is checked against configured limits before it
// is applied, and violations are rejected with a typed reason the
// pipeline surfaces in its run summary. Closing (risk-reducing) orders
// are always allowed — a limit breach must never trap an open
// position.
package risk

import (
	"errors"
	"fmt"

	"marketminer/internal/portfolio"
)

// Limits configures the manager. Zero-valued fields are unlimited.
type Limits struct {
	// MaxGrossExposure caps the book's total |shares|·price value.
	MaxGrossExposure float64
	// MaxStockShares caps net |shares| held in any single stock.
	MaxStockShares int
	// MaxOrderNotional caps a single order's dollar value (the
	// liquidity-provisioning knob: oversized orders would move the
	// market and must be sliced upstream).
	MaxOrderNotional float64
	// MaxOrders caps total accepted orders per session (a runaway-
	// strategy fuse).
	MaxOrders int
}

// Unlimited reports whether every limit is disabled.
func (l Limits) Unlimited() bool {
	return l.MaxGrossExposure == 0 && l.MaxStockShares == 0 &&
		l.MaxOrderNotional == 0 && l.MaxOrders == 0
}

// Reason classifies a rejection.
type Reason int

// Rejection reasons.
const (
	Accepted Reason = iota
	GrossExposure
	StockConcentration
	OrderNotional
	OrderBudget
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case GrossExposure:
		return "gross-exposure"
	case StockConcentration:
		return "stock-concentration"
	case OrderNotional:
		return "order-notional"
	case OrderBudget:
		return "order-budget"
	default:
		return "unknown"
	}
}

// ErrRejected wraps a rejection with its reason.
type ErrRejected struct {
	Reason Reason
	Order  portfolio.Order
}

func (e *ErrRejected) Error() string {
	return fmt.Sprintf("risk: order rejected (%s): %s %d shares of stock %d @ %.2f",
		e.Reason, e.Order.Side, e.Order.Shares, e.Order.Stock, e.Order.Price)
}

// Manager enforces Limits over a portfolio.Book. Not safe for
// concurrent use; the pipeline's master node is single-threaded by
// construction.
type Manager struct {
	limits   Limits
	book     *portfolio.Book
	accepted int
	rejected map[Reason]int
}

// NewManager wraps a fresh book with the given limits.
func NewManager(limits Limits) (*Manager, error) {
	if limits.MaxGrossExposure < 0 || limits.MaxStockShares < 0 ||
		limits.MaxOrderNotional < 0 || limits.MaxOrders < 0 {
		return nil, errors.New("risk: limits must be non-negative")
	}
	return &Manager{
		limits:   limits,
		book:     portfolio.NewBook(),
		rejected: make(map[Reason]int),
	}, nil
}

// Book exposes the underlying basket book (read-only use expected).
func (m *Manager) Book() *portfolio.Book { return m.book }

// Accepted returns the number of orders applied.
func (m *Manager) Accepted() int { return m.accepted }

// Rejected returns the rejection count for one reason.
func (m *Manager) Rejected(r Reason) int { return m.rejected[r] }

// TotalRejected returns all rejections.
func (m *Manager) TotalRejected() int {
	var n int
	for _, c := range m.rejected {
		n += c
	}
	return n
}

// reduces reports whether the order shrinks the absolute position in
// its stock (a closing leg).
func (m *Manager) reduces(o portfolio.Order) bool {
	cur := m.book.NetShares(o.Stock)
	delta := o.Shares
	if o.Side == portfolio.Sell {
		delta = -delta
	}
	next := cur + delta
	return abs(next) < abs(cur)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Check classifies an order without applying it.
func (m *Manager) Check(o portfolio.Order) Reason {
	if m.limits.Unlimited() || m.reduces(o) {
		return Accepted
	}
	if m.limits.MaxOrders > 0 && m.accepted >= m.limits.MaxOrders {
		return OrderBudget
	}
	if m.limits.MaxOrderNotional > 0 && o.Notional() > m.limits.MaxOrderNotional {
		return OrderNotional
	}
	if m.limits.MaxStockShares > 0 {
		cur := m.book.NetShares(o.Stock)
		delta := o.Shares
		if o.Side == portfolio.Sell {
			delta = -delta
		}
		if abs(cur+delta) > m.limits.MaxStockShares {
			return StockConcentration
		}
	}
	if m.limits.MaxGrossExposure > 0 {
		// Conservative: adding the full order notional to gross.
		if m.book.GrossExposure()+o.Notional() > m.limits.MaxGrossExposure+1e-9 {
			return GrossExposure
		}
	}
	return Accepted
}

// ApplyPair applies a two-leg pair basket atomically: either every
// leg passes Check and all are applied, or none are and an
// *ErrRejected for the first offending leg is returned. The gross
// check is per-leg (slightly optimistic for the second leg), which is
// the standard pre-trade-check approximation.
//
// Closing baskets bypass the checks entirely: when several pair
// positions overlap on a stock, an exit leg can *increase* that
// stock's net book position, yet refusing it would trap the open pair
// — risk limits must never block risk-off flow. Callers flag closing
// baskets via ApplyClosingPair.
func (m *Manager) ApplyPair(legs []portfolio.Order) error {
	for _, o := range legs {
		if r := m.Check(o); r != Accepted {
			m.rejected[r] += len(legs)
			return &ErrRejected{Reason: r, Order: o}
		}
	}
	for _, o := range legs {
		if err := m.book.Apply(o); err != nil {
			return err
		}
		m.accepted++
	}
	return nil
}

// ApplyClosingPair applies an exit basket unconditionally (see
// ApplyPair for why closing flow is never blocked).
func (m *Manager) ApplyClosingPair(legs []portfolio.Order) error {
	for _, o := range legs {
		if err := m.book.Apply(o); err != nil {
			return err
		}
		m.accepted++
	}
	return nil
}

package taq

import (
	"testing"
	"testing/quick"
)

func q(day int, t float64) Quote {
	return Quote{Day: day, SeqTime: t, Symbol: "X", Bid: 10, Ask: 10.1, BidSize: 1, AskSize: 1}
}

func TestOrderCheckerMonotonic(t *testing.T) {
	var c OrderChecker
	for i, quote := range []Quote{q(0, 1), q(0, 1), q(0, 2.5), q(1, 0), q(1, 3)} {
		if !c.Check(quote) {
			t.Errorf("quote %d flagged out of order", i)
		}
	}
	if c.Violations() != 0 {
		t.Errorf("violations = %d, want 0", c.Violations())
	}
}

func TestOrderCheckerFlagsRegressions(t *testing.T) {
	var c OrderChecker
	c.Check(q(0, 100))
	if c.Check(q(0, 50)) {
		t.Error("time regression not flagged")
	}
	if c.Check(q(0, -1)) {
		t.Error("second regression not flagged")
	}
	// Running-max semantics: a glitch must not cascade.
	if !c.Check(q(0, 100)) {
		t.Error("quote at the running max flagged")
	}
	c.Check(q(1, 0))
	if c.Check(q(0, 500)) {
		t.Error("day regression not flagged")
	}
	if c.Violations() != 3 {
		t.Errorf("violations = %d, want 3", c.Violations())
	}
}

func TestOrderCheckerSingleGlitchCountsOnce(t *testing.T) {
	// One early-timestamp glitch inside an otherwise sorted stream
	// produces exactly one violation.
	if v := violations([]Quote{q(0, 1), q(0, 2), q(0, 0.5), q(0, 3), q(0, 4)}); v != 1 {
		t.Errorf("violations = %d, want 1", v)
	}
}

// violations runs a fresh checker over quotes.
func violations(quotes []Quote) int {
	var c OrderChecker
	for _, quote := range quotes {
		c.Check(quote)
	}
	return c.Violations()
}

// TestOrderCheckerSortedProperty: any stream sorted by (Day, SeqTime)
// passes with zero violations.
func TestOrderCheckerSortedProperty(t *testing.T) {
	f := func(times []float64, days []uint8) bool {
		n := len(times)
		if len(days) < n {
			n = len(days)
		}
		quotes := make([]Quote, 0, n)
		day, tm := 0, 0.0
		for i := 0; i < n; i++ {
			// Build a sorted stream by accumulating non-negative steps.
			day += int(days[i] % 2)
			step := times[i]
			if step < 0 {
				step = -step
			}
			if days[i]%2 == 1 {
				tm = 0
			}
			tm += step
			quotes = append(quotes, q(day, tm))
		}
		return violations(quotes) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

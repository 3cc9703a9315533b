package taq

// OrderChecker validates that a quote stream is time-ordered: the
// (Day, SeqTime) key must be non-decreasing. Both consumers of a quote
// stream care: the cleaning stage because its EWMA estimators assume
// chronological input, and the networked feed because a replayed or
// resumed stream that goes backwards in time indicates lost or
// reordered frames.
//
// The checker keeps the running maximum key rather than the last key,
// so a single early-timestamp glitch counts as one violation and does
// not cascade into flagging every subsequent (correctly ordered)
// quote. The zero value is ready to use; it is not safe for concurrent
// use.
type OrderChecker struct {
	started    bool
	maxDay     int
	maxTime    float64
	violations int
}

// Check reports whether q is in order relative to every quote seen so
// far, i.e. its (Day, SeqTime) is ≥ the running maximum. Out-of-order
// quotes are counted but do not advance the maximum.
func (c *OrderChecker) Check(q Quote) bool {
	if !c.started {
		c.started = true
		c.maxDay, c.maxTime = q.Day, q.SeqTime
		return true
	}
	if q.Day < c.maxDay || (q.Day == c.maxDay && q.SeqTime < c.maxTime) {
		c.violations++
		return false
	}
	c.maxDay, c.maxTime = q.Day, q.SeqTime
	return true
}

// Violations returns the number of out-of-order quotes seen.
func (c *OrderChecker) Violations() int { return c.violations }

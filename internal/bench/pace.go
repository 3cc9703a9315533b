package bench

import (
	"time"

	"marketminer/internal/series"
	"marketminer/internal/taq"
)

// paceTick is the open-loop publisher's wake-up period: every tick it
// publishes whatever has fallen due. It bounds how late the generator
// itself runs; the lateness is reported, and it counts against the
// system because latency is measured from due times, not send times.
const paceTick = time.Millisecond

// clock is the time source of the publisher (tests inject a fake).
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule maps market time onto wall time: a quote stamped seqTime
// market seconds after the open is due seqTime/speed seconds after the
// replay starts.
type schedule struct {
	start time.Time
	speed float64 // market seconds per wall second
}

func (s schedule) due(seqTime float64) time.Time {
	return s.start.Add(time.Duration(seqTime / s.speed * float64(time.Second)))
}

// closingQuotes returns, per grid interval s, the index of its closing
// quote: the first quote whose grid index exceeds s. Intervals after
// the last quote's get len(quotes) — the end of the stream closes them.
func closingQuotes(grid series.Grid, quotes []taq.Quote) []int {
	closing := make([]int, grid.SMax)
	s := 0
	for i, q := range quotes {
		idx, ok := grid.Index(q.SeqTime)
		if !ok {
			continue
		}
		for ; s < idx && s < grid.SMax; s++ {
			closing[s] = i
		}
	}
	for ; s < grid.SMax; s++ {
		closing[s] = len(quotes)
	}
	return closing
}

// paceOpenLoop publishes quotes on the schedule regardless of how the
// system keeps up: each tick it calls publish(lo, hi) for the quotes
// that have fallen due and no others, so no quote is sent before its
// due time. It returns, per interval, when its closing quote was sent
// (the time publish returned); intervals closed by the end of the
// stream get the time the last publish returned.
func paceOpenLoop(clk clock, sch schedule, tick time.Duration, seqTimes []float64, closing []int, publish func(lo, hi int)) []time.Time {
	sent := make([]time.Time, len(closing))
	next, s := 0, 0
	var last time.Time
	for next < len(seqTimes) {
		now := clk.Now()
		elapsed := now.Sub(sch.start).Seconds() * sch.speed
		hi := next
		for hi < len(seqTimes) && seqTimes[hi] <= elapsed {
			hi++
		}
		if hi > next {
			publish(next, hi)
			last = clk.Now()
			for ; s < len(closing) && closing[s] < hi; s++ {
				sent[s] = last
			}
			next, now = hi, last
		}
		// Sleep to the next tick boundary, so wake-ups do not drift.
		clk.Sleep(tick - now.Sub(sch.start)%tick)
	}
	for ; s < len(closing); s++ {
		sent[s] = last
	}
	return sent
}

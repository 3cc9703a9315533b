package clean

import (
	"math/rand"
	"testing"
	"testing/quick"

	"marketminer/internal/taq"
)

func goodQuote(t float64, mid float64) taq.Quote {
	return taq.Quote{SeqTime: t, Symbol: "AA", Bid: mid - 0.01, Ask: mid + 0.01, BidSize: 5, AskSize: 5}
}

func TestReasonString(t *testing.T) {
	for r, want := range map[Reason]string{
		OK: "ok", BadStructure: "bad-structure", ZeroSize: "zero-size",
		WideSpread: "wide-spread", Outlier: "outlier", OutOfOrder: "out-of-order", Reason(99): "unknown",
	} {
		if r.String() != want {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestFilterAcceptsCleanTape(t *testing.T) {
	f := NewFilter(Config{})
	for i := 0; i < 100; i++ {
		q := goodQuote(float64(i), 50+0.001*float64(i))
		if r := f.Accept(q); r != OK {
			t.Fatalf("quote %d rejected: %v", i, r)
		}
	}
	if f.Accepted() != 100 || f.TotalRejected() != 0 {
		t.Errorf("accepted=%d rejected=%d", f.Accepted(), f.TotalRejected())
	}
}

func TestFilterRejectsStructure(t *testing.T) {
	f := NewFilter(Config{})
	crossed := taq.Quote{SeqTime: 1, Symbol: "AA", Bid: 51, Ask: 50, BidSize: 1, AskSize: 1}
	if r := f.Accept(crossed); r != BadStructure {
		t.Errorf("crossed quote: %v", r)
	}
	neg := taq.Quote{SeqTime: 1, Symbol: "AA", Bid: -5, Ask: 50, BidSize: 1, AskSize: 1}
	if r := f.Accept(neg); r != BadStructure {
		t.Errorf("negative bid: %v", r)
	}
	if f.Rejected(BadStructure) != 2 {
		t.Errorf("Rejected(BadStructure) = %d", f.Rejected(BadStructure))
	}
}

func TestFilterRejectsTestQuotes(t *testing.T) {
	f := NewFilter(Config{})
	zero := taq.Quote{SeqTime: 1, Symbol: "AA", Bid: 50, Ask: 50.1, BidSize: 0, AskSize: 0}
	if r := f.Accept(zero); r != ZeroSize {
		t.Errorf("zero-size quote: %v", r)
	}
	wide := taq.Quote{SeqTime: 2, Symbol: "AA", Bid: 40, Ask: 60, BidSize: 1, AskSize: 1}
	if r := f.Accept(wide); r != WideSpread {
		t.Errorf("wide-spread quote: %v", r)
	}
}

func TestFilterRejectsFatFinger(t *testing.T) {
	f := NewFilter(Config{})
	for i := 0; i < 50; i++ {
		f.Accept(goodQuote(float64(i), 50))
	}
	// A 10x price spike (fat finger) must be rejected as an outlier.
	spike := goodQuote(51, 500)
	if r := f.Accept(spike); r != Outlier {
		t.Errorf("fat-finger: got %v, want Outlier", r)
	}
	// The tape then continues at 50 and is still accepted.
	if r := f.Accept(goodQuote(52, 50.01)); r != OK {
		t.Errorf("post-spike quote rejected: %v", r)
	}
}

func TestFilterWarmupGrace(t *testing.T) {
	cfg := Config{}
	cfg.Warmup = 5
	f := NewFilter(cfg)
	// During warm-up even jumpy prices pass the deviation check.
	for i, mid := range []float64{50, 55, 45, 52, 48} {
		if r := f.Accept(goodQuote(float64(i), mid)); r != OK {
			t.Errorf("warmup quote %d rejected: %v", i, r)
		}
	}
}

func TestFilterTracksDrift(t *testing.T) {
	f := NewFilter(Config{})
	mid := 50.0
	for i := 0; i < 2000; i++ {
		mid *= 1.0005 // steady drift
		if r := f.Accept(goodQuote(float64(i), mid)); r != OK {
			t.Fatalf("drifting tape rejected at %d (mid=%.2f): %v", i, mid, r)
		}
	}
}

func TestFilterPerSymbolState(t *testing.T) {
	f := NewFilter(Config{})
	for i := 0; i < 20; i++ {
		f.Accept(goodQuote(float64(i), 50))
		q := goodQuote(float64(i), 200)
		q.Symbol = "BB"
		if r := f.Accept(q); r != OK {
			t.Fatalf("BB tape rejected: %v", r)
		}
	}
	m1, _, ok1 := f.Level("AA")
	m2, _, ok2 := f.Level("BB")
	if !ok1 || !ok2 {
		t.Fatal("missing level state")
	}
	if m1 > 60 || m2 < 150 {
		t.Errorf("levels not independent: AA=%v BB=%v", m1, m2)
	}
	if _, _, ok := f.Level("ZZ"); ok {
		t.Error("unknown symbol should have no level")
	}
}

func TestCheckDoesNotMutate(t *testing.T) {
	f := NewFilter(Config{})
	q := goodQuote(1, 50)
	for i := 0; i < 10; i++ {
		f.Check(q)
	}
	if f.Accepted() != 0 {
		t.Error("Check must not count as acceptance")
	}
	if _, _, ok := f.Level("AA"); ok {
		t.Error("Check must not create estimator state")
	}
}

func TestNewFilterSanitizesConfig(t *testing.T) {
	f := NewFilter(Config{}) // all zero
	for i := 0; i < 50; i++ {
		if r := f.Accept(goodQuote(float64(i), 50)); r != OK {
			t.Fatalf("sanitized config rejected clean tape: %v", r)
		}
	}
}

func TestCleanBatch(t *testing.T) {
	var quotes []taq.Quote
	for i := 0; i < 100; i++ {
		quotes = append(quotes, goodQuote(float64(i), 50))
	}
	quotes[40] = goodQuote(40, 5000)                                                            // fat finger
	quotes[60] = taq.Quote{SeqTime: 60, Symbol: "AA", Bid: 50, Ask: 50.1}                       // zero size
	quotes[70] = taq.Quote{SeqTime: 70, Symbol: "AA", Bid: 55, Ask: 54, BidSize: 1, AskSize: 1} // crossed
	out, f := Clean(Config{}, quotes)
	if len(out) != 97 {
		t.Errorf("cleaned %d quotes, want 97", len(out))
	}
	if f.Rejected(Outlier) != 1 || f.Rejected(ZeroSize) != 1 || f.Rejected(BadStructure) != 1 {
		t.Errorf("rejection breakdown: outlier=%d zerosize=%d struct=%d",
			f.Rejected(Outlier), f.Rejected(ZeroSize), f.Rejected(BadStructure))
	}
}

// Property: on a Gaussian tape with occasional 50% spikes, the filter
// rejects every spike and at most a tiny fraction of clean ticks.
func TestFilterSelectivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flt := NewFilter(Config{})
		var cleanRejected, spikeAccepted int
		cleanTotal := 0
		for i := 0; i < 500; i++ {
			mid := 100 + rng.NormFloat64()*0.02
			spike := i > 50 && rng.Float64() < 0.02
			if spike {
				mid *= 1.5
			}
			r := flt.Accept(goodQuote(float64(i), mid))
			if spike && r == OK {
				spikeAccepted++
			}
			if !spike {
				cleanTotal++
				if r != OK {
					cleanRejected++
				}
			}
		}
		return spikeAccepted == 0 && float64(cleanRejected) < 0.04*float64(cleanTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLevelShiftReAccepted(t *testing.T) {
	cfg := Config{}
	cfg.MaxRun = 5
	f := NewFilter(cfg)
	for i := 0; i < 50; i++ {
		f.Accept(goodQuote(float64(i), 50))
	}
	// A genuine 1% level shift: the first MaxRun-1 quotes at the new
	// level are rejected, then the filter re-anchors.
	var rejected, accepted int
	for i := 50; i < 70; i++ {
		if f.Accept(goodQuote(float64(i), 50.5)) == OK {
			accepted++
		} else {
			rejected++
		}
	}
	if rejected != cfg.MaxRun-1 {
		t.Errorf("rejected %d quotes at the new level, want %d", rejected, cfg.MaxRun-1)
	}
	if accepted != 20-(cfg.MaxRun-1) {
		t.Errorf("accepted %d, want %d", accepted, 20-(cfg.MaxRun-1))
	}
	mean, _, _ := f.Level("AA")
	if mean < 50.3 {
		t.Errorf("estimator did not re-anchor: mean=%v", mean)
	}
}

func TestIsolatedSpikesStillRejectedWithMaxRun(t *testing.T) {
	f := NewFilter(Config{})
	for i := 0; i < 50; i++ {
		f.Accept(goodQuote(float64(i), 50))
	}
	// Alternating spike/normal never builds a run.
	for i := 50; i < 70; i += 2 {
		if r := f.Accept(goodQuote(float64(i), 500)); r != Outlier {
			t.Fatalf("spike at %d: %v", i, r)
		}
		if r := f.Accept(goodQuote(float64(i+1), 50)); r != OK {
			t.Fatalf("normal quote at %d rejected: %v", i+1, r)
		}
	}
}

func TestFilterOrderedRejectsTimeTravel(t *testing.T) {
	cfg := Config{}
	cfg.Ordered = true
	f := NewFilter(cfg)
	for i := 0; i < 20; i++ {
		if r := f.Accept(goodQuote(float64(i), 50)); r != OK {
			t.Fatalf("ordered quote %d rejected: %v", i, r)
		}
	}
	// A quote from the past: statistically perfect, temporally wrong.
	if r := f.Accept(goodQuote(5, 50)); r != OutOfOrder {
		t.Fatalf("stale quote: got %v, want OutOfOrder", r)
	}
	// An earlier Day outranks a larger SeqTime.
	past := goodQuote(100, 50)
	past.Day = -1
	if r := f.Accept(past); r != OutOfOrder {
		t.Fatalf("previous-day quote: got %v, want OutOfOrder", r)
	}
	if f.Rejected(OutOfOrder) != 2 {
		t.Errorf("Rejected(OutOfOrder) = %d, want 2", f.Rejected(OutOfOrder))
	}
	// The stream resumes at the running max, not at the glitch.
	if r := f.Accept(goodQuote(19.5, 50)); r != OK {
		t.Fatalf("resumed quote rejected: %v", r)
	}
}

func TestFilterOrderedShieldsReanchor(t *testing.T) {
	// A MaxRun-length burst of out-of-order quotes must NOT trigger the
	// level-shift re-anchor: ordering rejection precedes outlier
	// counting, so outRun never advances and the estimator is intact.
	cfg := Config{}
	cfg.Ordered = true
	f := NewFilter(cfg)
	for i := 0; i < 20; i++ {
		f.Accept(goodQuote(float64(i), 50))
	}
	mean0, _, _ := f.Level("AA")
	for i := 0; i < cfg.MaxRun+2; i++ {
		if r := f.Accept(goodQuote(1, 500)); r != OutOfOrder { // stale AND 10× the level
			t.Fatalf("stale outlier %d: got %v, want OutOfOrder", i, r)
		}
	}
	if mean, _, _ := f.Level("AA"); mean != mean0 {
		t.Errorf("estimator perturbed by rejected quotes: %v → %v", mean0, mean)
	}
	if r := f.Accept(goodQuote(20, 50)); r != OK {
		t.Fatalf("clean quote after glitch burst rejected: %v", r)
	}
}

func TestFilterUnorderedIgnoresTime(t *testing.T) {
	// Without Ordered, the default filter is time-agnostic (historical
	// slices are pre-sorted; re-checking them would be pure overhead).
	f := NewFilter(Config{})
	if r := f.Accept(goodQuote(10, 50)); r != OK {
		t.Fatal(r)
	}
	if r := f.Accept(goodQuote(1, 50)); r != OK {
		t.Fatalf("unordered filter rejected a stale quote: %v", r)
	}
}

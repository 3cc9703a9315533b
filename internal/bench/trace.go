package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are a later change). Times are
// nanoseconds since the trace began; Parent is the id of the span that
// caused it (0 = root); Run groups the spans of one job or replay.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"` // layer.op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Trace keeps spans in memory until the run ends. It is safe for
// concurrent use by a job's workers.
type Trace struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts an empty trace.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Begin opens a span and returns the function that closes it together
// with the span's id (the parent of any span the call causes).
func (t *Trace) Begin(run, parent int, name string) (id int, end func()) {
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: start, End: start})
	id = len(t.spans)
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = stop
		t.mu.Unlock()
	}
}

// Add records an already-measured span.
func (t *Trace) Add(run, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of it its direct
// children cover (children are clipped to the parent and assumed not to
// overlap one another, which holds for spans recorded by one
// goroutine).
func SelfTimes(spans []Span) map[string]int64 {
	covered := make(map[int]int64, len(spans))
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		self := s.End - s.Start - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// traceRecord is one line of trace_<workload>.jsonl: a span, or the
// unnamed counts-at-boundaries record of metrics.Counters() deltas.
type traceRecord struct {
	*Span
	Counters map[string]int64 `json:"counters,omitempty"`
}

// WriteJSONL writes the spans, one JSON object per line, followed by
// one line holding the raw counter deltas of the run.
func (t *Trace) WriteJSONL(path string, counters map[string]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := t.Spans()
	for i := range spans {
		if err := enc.Encode(traceRecord{Span: &spans[i]}); err != nil {
			f.Close()
			return fmt.Errorf("bench: write %s: %w", path, err)
		}
	}
	if err := enc.Encode(traceRecord{Counters: counters}); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return f.Close()
}

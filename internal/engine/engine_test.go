package engine

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// intsSource emits 0..n-1.
func intsSource(n int) SourceFunc {
	return func(ctx context.Context, emit Emit) error {
		for i := 0; i < n; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	}
}

// collector appends every message to a mutex-guarded slice.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) proc(ctx context.Context, m Message, emit Emit) error {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	return nil
}

func (c *collector) ints() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.msgs))
	for i, m := range c.msgs {
		out[i] = m.(int)
	}
	sort.Ints(out)
	return out
}

func TestLinearPipeline(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(100))
	double := g.Node("double", 1, func(ctx context.Context, m Message, emit Emit) error {
		emit(m.(int) * 2)
		return nil
	})
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(src, double, 8)
	g.Connect(double, snk, 8)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sink.ints()
	if len(got) != 100 {
		t.Fatalf("sink got %d messages", len(got))
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestOrderPreservedSingleWorker(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(500))
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(src, snk, 0) // unbuffered: strict lockstep
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, m := range sink.msgs {
		if m.(int) != i {
			t.Fatalf("order broken at %d: %v", i, m)
		}
	}
}

func TestFanOutBroadcast(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(50))
	a := &collector{}
	b := &collector{}
	na := g.Node("a", 1, a.proc)
	nb := g.Node("b", 1, b.proc)
	g.Connect(src, na, 4)
	g.Connect(src, nb, 4)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(a.ints()) != 50 || len(b.ints()) != 50 {
		t.Errorf("broadcast incomplete: a=%d b=%d", len(a.ints()), len(b.ints()))
	}
}

func TestFanInMerge(t *testing.T) {
	g := NewGraph()
	s1 := g.Source("s1", intsSource(30))
	s2 := g.Source("s2", func(ctx context.Context, emit Emit) error {
		for i := 100; i < 130; i++ {
			if !emit(i) {
				return nil
			}
		}
		return nil
	})
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(s1, snk, 4)
	g.Connect(s2, snk, 4)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sink.ints()
	if len(got) != 60 {
		t.Fatalf("merged %d messages, want 60", len(got))
	}
	if got[0] != 0 || got[59] != 129 {
		t.Errorf("merge contents wrong: %v..%v", got[0], got[59])
	}
}

func TestParallelNodeProcessesAll(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(200))
	var n atomic.Int64
	work := g.Node("work", 8, func(ctx context.Context, m Message, emit Emit) error {
		n.Add(1)
		emit(m)
		return nil
	})
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(src, work, 16)
	g.Connect(work, snk, 16)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 200 {
		t.Errorf("processed %d, want 200", n.Load())
	}
	got := sink.ints()
	for i, v := range got {
		if v != i {
			t.Fatalf("message set wrong at %d: %d", i, v)
		}
	}
}

func TestNodeErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	g := NewGraph()
	src := g.Source("src", intsSource(1000000)) // far more than consumed
	bad := g.Node("bad", 1, func(ctx context.Context, m Message, emit Emit) error {
		if m.(int) == 10 {
			return boom
		}
		return nil
	})
	g.Connect(src, bad, 1)
	err := g.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("source failed")
	g := NewGraph()
	src := g.Source("src", func(ctx context.Context, emit Emit) error { return boom })
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(src, snk, 1)
	if err := g.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", func(ctx context.Context, emit Emit) error {
		for i := 0; ; i++ {
			if !emit(i) {
				return nil
			}
		}
	})
	snk := g.Node("sink", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
	g.Connect(src, snk, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("graph did not stop after cancellation")
	}
}

func TestOnDrainFlush(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(10))
	var sum int
	agg := g.Node("agg", 1, func(ctx context.Context, m Message, emit Emit) error {
		sum += m.(int)
		return nil
	})
	g.OnDrain(agg, func(ctx context.Context, emit Emit) error {
		emit(sum)
		return nil
	})
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(src, agg, 4)
	g.Connect(agg, snk, 1)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sink.ints()
	if len(got) != 1 || got[0] != 45 {
		t.Errorf("flush output = %v, want [45]", got)
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("empty graph", func(t *testing.T) {
		if err := NewGraph().Run(context.Background()); err == nil {
			t.Error("want error")
		}
	})
	t.Run("duplicate names", func(t *testing.T) {
		g := NewGraph()
		g.Source("x", intsSource(1))
		s2 := g.Source("x", intsSource(1))
		snk := g.Node("s", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		g.Connect(s2, snk, 1)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want duplicate-name error")
		}
	})
	t.Run("orphan processor", func(t *testing.T) {
		g := NewGraph()
		g.Source("src", intsSource(1))
		g.Node("orphan", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		if err := g.Run(context.Background()); err == nil {
			t.Error("want no-inputs error")
		}
	})
	t.Run("no source", func(t *testing.T) {
		g := NewGraph()
		a := g.Node("a", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		b := g.Node("b", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		g.Connect(a, b, 1)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want no-source error")
		}
	})
	t.Run("edge into source", func(t *testing.T) {
		g := NewGraph()
		s := g.Source("src", intsSource(1))
		a := g.Node("a", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		g.Connect(s, a, 1)
		g.Connect(a, s, 1)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want source-input error")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		g := NewGraph()
		g.Source("src", intsSource(1))
		a := g.Node("a", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		g.Connect(a, a, 1)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want self-loop error")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		g := NewGraph()
		s := g.Source("src", intsSource(1))
		a := g.Node("a", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		b := g.Node("b", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		g.Connect(s, a, 1)
		g.Connect(a, b, 1)
		g.Connect(b, a, 1)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want cycle error")
		}
	})
	t.Run("duplicate edge", func(t *testing.T) {
		g := NewGraph()
		s := g.Source("src", intsSource(1))
		a := g.Node("a", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
		g.Connect(s, a, 1)
		g.Connect(s, a, 1)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want duplicate-edge error")
		}
	})
	t.Run("nil funcs", func(t *testing.T) {
		g := NewGraph()
		g.Source("src", nil)
		if err := g.Run(context.Background()); err == nil {
			t.Error("want nil-func error")
		}
	})
	t.Run("run twice", func(t *testing.T) {
		g := NewGraph()
		s := g.Source("src", intsSource(1))
		a := &collector{}
		g.Connect(s, g.Node("a", 1, a.proc), 1)
		if err := g.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := g.Run(context.Background()); err == nil {
			t.Error("second Run should error")
		}
	})
}

func TestStatsCounters(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(25))
	pass := g.Node("pass", 1, func(ctx context.Context, m Message, emit Emit) error {
		emit(m)
		return nil
	})
	sink := &collector{}
	snk := g.Node("sink", 1, sink.proc)
	g.Connect(src, pass, 4)
	g.Connect(pass, snk, 4)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := g.Stats()
	byName := map[string]Stats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["src"].Emitted != 25 {
		t.Errorf("src emitted = %d", byName["src"].Emitted)
	}
	if byName["pass"].Received != 25 || byName["pass"].Emitted != 25 {
		t.Errorf("pass stats = %+v", byName["pass"])
	}
	if byName["sink"].Received != 25 {
		t.Errorf("sink received = %d", byName["sink"].Received)
	}
}

func TestDiamondTopology(t *testing.T) {
	// src → {left, right} → join: classic DAG shape from Figure 1,
	// where quotes fan out to technical analysis and correlation and
	// re-join at the strategy node.
	g := NewGraph()
	src := g.Source("src", intsSource(40))
	left := g.Node("left", 1, func(ctx context.Context, m Message, emit Emit) error {
		emit([2]int{0, m.(int)})
		return nil
	})
	right := g.Node("right", 1, func(ctx context.Context, m Message, emit Emit) error {
		emit([2]int{1, m.(int)})
		return nil
	})
	var mu sync.Mutex
	counts := map[int]int{}
	join := g.Node("join", 1, func(ctx context.Context, m Message, emit Emit) error {
		mu.Lock()
		counts[m.([2]int)[0]]++
		mu.Unlock()
		return nil
	})
	g.Connect(src, left, 4)
	g.Connect(src, right, 4)
	g.Connect(left, join, 4)
	g.Connect(right, join, 4)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 40 || counts[1] != 40 {
		t.Errorf("join counts = %v", counts)
	}
}

func TestLargeThroughputNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := NewGraph()
	const n = 100000
	src := g.Source("src", intsSource(n))
	stage1 := g.Node("s1", 4, func(ctx context.Context, m Message, emit Emit) error {
		emit(m)
		return nil
	})
	stage2 := g.Node("s2", 2, func(ctx context.Context, m Message, emit Emit) error {
		emit(m)
		return nil
	})
	var total atomic.Int64
	snk := g.Node("sink", 1, func(ctx context.Context, m Message, emit Emit) error {
		total.Add(1)
		return nil
	})
	g.Connect(src, stage1, 64)
	g.Connect(stage1, stage2, 64)
	g.Connect(stage2, snk, 64)
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline deadlocked")
	}
	if total.Load() != n {
		t.Errorf("sink saw %d messages, want %d", total.Load(), n)
	}
}

func TestDOTExport(t *testing.T) {
	g := NewGraph()
	src := g.Source("collector", intsSource(1))
	a := g.Node("cleaner", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
	b := g.Node("strategy", 1, func(ctx context.Context, m Message, emit Emit) error { return nil })
	g.Connect(src, a, 4)
	g.Connect(a, b, 4)
	dot := g.DOT("figure1")
	for _, want := range []string{
		`digraph "figure1"`,
		`"collector" [shape=box]`,
		`"cleaner" [shape=ellipse]`,
		`"collector" -> "cleaner"`,
		`"cleaner" -> "strategy"`,
	} {
		if !stringsContains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func stringsContains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestNodePanicBecomesError(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(10))
	boom := g.Node("boom", 1, func(ctx context.Context, m Message, emit Emit) error {
		if m.(int) == 3 {
			panic("poison message")
		}
		return nil
	})
	g.Connect(src, boom, 4)
	err := g.Run(context.Background())
	if err == nil {
		t.Fatal("panicking node should fail the graph, not crash the process")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Node != "boom" || pe.Value != "poison message" || len(pe.Stack) == 0 {
		t.Errorf("panic error fields: node=%q value=%v stackLen=%d", pe.Node, pe.Value, len(pe.Stack))
	}
}

func TestSourcePanicBecomesError(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", func(ctx context.Context, emit Emit) error {
		panic("source blew up")
	})
	snk := g.Node("sink", 1, (&collector{}).proc)
	g.Connect(src, snk, 1)
	err := g.Run(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Node != "src" {
		t.Fatalf("err = %v, want *PanicError from src", err)
	}
}

func TestFlushPanicBecomesError(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", intsSource(3))
	agg := g.Node("agg", 1, (&collector{}).proc)
	g.Connect(src, agg, 4)
	g.OnDrain(agg, func(ctx context.Context, emit Emit) error {
		panic("flush blew up")
	})
	err := g.Run(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError from flush", err)
	}
}

// Workers receive straight from their edges and watch the context in
// the same select. Cancelling while every edge is full — sources
// blocked in emit, a fan-in's forwarders blocked on the merged channel,
// the worker inside a proc — must end Run promptly, and Run must have
// joined every goroutine it started.
func TestCancelWithFullEdgesStopsPromptlyAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()

	g := NewGraph()
	forever := func(ctx context.Context, emit Emit) error {
		for emit(0) {
		}
		return nil
	}
	a := g.Source("a", forever)
	b := g.Source("b", forever)
	entered := make(chan struct{})
	var once sync.Once
	join := g.Node("join", 1, func(ctx context.Context, m Message, emit Emit) error {
		once.Do(func() { close(entered) })
		<-ctx.Done() // holds the worker so everything upstream backs up
		return nil
	})
	snk := g.Node("sink", 1, func(context.Context, Message, Emit) error { return nil })
	g.Connect(a, join, 64)
	g.Connect(b, join, 64)
	g.Connect(join, snk, 64)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for _, src := range []NodeID{a, b} {
		edge := g.nodes[src].outs[0]
		for len(edge) < cap(edge) {
			if time.Now().After(deadline) {
				t.Fatal("edges never filled")
			}
			runtime.Gosched()
		}
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graph with full edges did not stop after cancellation")
	}
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before Run, %d after it returned", before, runtime.NumGoroutine())
		}
		runtime.Gosched() // the goroutine that called Run is still unwinding
	}
}

// BenchmarkGraphHop is the cost of moving one message across one edge:
// a source and three pass-through nodes, b.N messages, three hops each.
func BenchmarkGraphHop(b *testing.B) {
	g := NewGraph()
	pass := func(ctx context.Context, m Message, emit Emit) error { emit(m); return nil }
	src := g.Source("src", func(ctx context.Context, emit Emit) error {
		var m Message = 1 // boxed once: the hop is measured, not the boxing
		for i := 0; i < b.N; i++ {
			if !emit(m) {
				return nil
			}
		}
		return nil
	})
	n1 := g.Node("a", 1, pass)
	n2 := g.Node("b", 1, pass)
	n3 := g.Node("c", 1, func(context.Context, Message, Emit) error { return nil })
	g.Connect(src, n1, 256)
	g.Connect(n1, n2, 256)
	g.Connect(n2, n3, 256)
	b.ReportAllocs()
	b.ResetTimer()
	if err := g.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3*b.N), "ns/hop")
}

package supervise

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"marketminer/internal/engine"
)

// runStageGraph feeds msgs through a single supervised node and
// collects what reaches the sink.
func runStageGraph(t *testing.T, st *Stage, proc engine.ProcFunc, msgs []int) ([]int, error) {
	t.Helper()
	g := engine.NewGraph()
	src := g.Source("src", func(ctx context.Context, emit engine.Emit) error {
		for _, m := range msgs {
			if !emit(m) {
				return nil
			}
		}
		return nil
	})
	node := g.Node("stage", 1, st.Wrap(proc))
	var got []int
	snk := g.Node("sink", 1, func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		got = append(got, m.(int))
		return nil
	})
	g.Connect(src, node, 4)
	g.Connect(node, snk, 4)
	err := g.Run(context.Background())
	return got, err
}

func intKey(m engine.Message) (string, bool) {
	i, ok := m.(int)
	return fmt.Sprintf("msg-%d", i), ok
}

func TestStageQuarantinesPoisonMessage(t *testing.T) {
	quar, err := OpenQuarantine("")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage("stage", 0, quar, intKey)

	attempts := map[int]int{}
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		i := m.(int)
		attempts[i]++
		if i == 3 {
			panic("poison")
		}
		emit(i)
		return nil
	}
	got, err := runStageGraph(t, st, proc, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	want := []int{0, 1, 2, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivered %v, want %v (poison skipped)", got, want)
	}
	if attempts[3] != 1 {
		t.Errorf("poison attempts = %d, want 1 (no retry)", attempts[3])
	}
	if !quar.Seen("msg-3") || quar.Len() != 1 {
		t.Errorf("quarantine: seen=%v len=%d", quar.Seen("msg-3"), quar.Len())
	}
	rep := st.Report()
	if rep.Processed != 5 || rep.Quarantined != 1 || rep.Panics != 1 {
		t.Errorf("report: %+v", rep)
	}
	recs := quar.Records()
	if len(recs) != 1 || recs[0].Stage != "stage" || recs[0].Key != "msg-3" {
		t.Errorf("records: %+v", recs)
	}
}

func TestStageSkipsAlreadyQuarantined(t *testing.T) {
	quar, _ := OpenQuarantine("")
	if err := quar.Record("stage", "msg-2", "poisoned in a previous life"); err != nil {
		t.Fatal(err)
	}
	st := NewStage("stage", 0, quar, intKey)
	calls := 0
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		calls++
		emit(m.(int))
		return nil
	}
	got, err := runStageGraph(t, st, proc, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int{1, 3}) {
		t.Errorf("delivered %v, want [1 3]", got)
	}
	if calls != 2 {
		t.Errorf("proc ran %d times, want 2 (quarantined message must not be re-fed)", calls)
	}
	if st.Report().Skipped != 1 {
		t.Errorf("skipped = %d, want 1", st.Report().Skipped)
	}
}

// TestStageQuarantinesOnFirstAttempt is the stage contract. A message
// that emits and then panics forwards nothing and is quarantined on its
// first attempt, and the message after it goes through. maxFailures
// consecutive poison messages still open the circuit, each one run
// exactly once.
func TestStageQuarantinesOnFirstAttempt(t *testing.T) {
	quar, _ := OpenQuarantine("")
	st := NewStage("stage", 3, quar, intKey)
	attempts := map[int]int{}
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		i := m.(int)
		attempts[i]++
		emit(i * 10)
		if i%2 == 1 {
			panic("crash after emit")
		}
		return nil
	}
	got, err := runStageGraph(t, st, proc, []int{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int{80}) {
		t.Errorf("delivered %v, want only 80", got)
	}
	if !quar.Seen("msg-7") || quar.Len() != 1 {
		t.Errorf("quarantine: seen=%v len=%d, want msg-7 alone", quar.Seen("msg-7"), quar.Len())
	}
	rep := st.Report()
	if rep.Processed != 1 || rep.Panics != 1 || rep.Quarantined != 1 || rep.Skipped != 0 {
		t.Errorf("report: %+v", rep)
	}

	got, err = runStageGraph(t, st, proc, []int{1, 3, 5, 9})
	var ce *CircuitError
	if !errors.As(err, &ce) || ce.Failures != 3 {
		t.Fatalf("err = %v, want a CircuitError after 3 failures", err)
	}
	if len(got) != 0 {
		t.Errorf("poison messages delivered %v", got)
	}
	for _, i := range []int{7, 1, 3, 5} {
		if attempts[i] != 1 {
			t.Errorf("message %d ran %d times, want 1", i, attempts[i])
		}
	}
	if quar.Len() != 3 { // msg-7, msg-1, msg-3; msg-5 trips the breaker
		t.Errorf("quarantined %d, want 3", quar.Len())
	}
}

func TestStageExplicitErrorPassesThrough(t *testing.T) {
	quar, _ := OpenQuarantine("")
	st := NewStage("stage", 0, quar, intKey)
	sentinel := errors.New("intentional abort")
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		return sentinel
	}
	_, err := runStageGraph(t, st, proc, []int{1})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the stage's own error (no retry, no quarantine)", err)
	}
	if quar.Len() != 0 {
		t.Errorf("explicit error was quarantined")
	}
}

func TestStageCircuitBreakerOnConsecutivePoison(t *testing.T) {
	// Every message is poison: after MaxFailures consecutive
	// quarantines the stage must stop absorbing and fail the graph.
	quar, _ := OpenQuarantine("")
	st := NewStage("stage", 3, quar, intKey)
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		panic("all poison")
	}
	_, err := runStageGraph(t, st, proc, []int{1, 2, 3, 4, 5, 6, 7, 8})
	var ce *CircuitError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CircuitError", err)
	}
	if ce.Failures != 3 {
		t.Errorf("failures = %d, want 3", ce.Failures)
	}
	if quar.Len() != 2 { // first two quarantined, third trips the breaker
		t.Errorf("quarantined %d, want 2", quar.Len())
	}
}

func TestStageUnquarantinableFailureFailsGraph(t *testing.T) {
	// Messages with no key (internal message types) must not be
	// silently skipped: their first panic fails the graph.
	st := NewStage("stage", 0, nil, nil)
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		panic("logic bug")
	}
	_, err := runStageGraph(t, st, proc, []int{1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError surfaced", err)
	}
}

func TestStageCleanMessageResetsBreaker(t *testing.T) {
	quar, _ := OpenQuarantine("")
	st := NewStage("stage", 3, quar, intKey)
	proc := func(ctx context.Context, m engine.Message, emit engine.Emit) error {
		if m.(int)%2 == 1 {
			panic("odd poison")
		}
		emit(m.(int))
		return nil
	}
	// Poison never arrives MaxFailures times consecutively.
	got, err := runStageGraph(t, st, proc, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatalf("interleaved poison tripped the breaker: %v", err)
	}
	if len(got) != 5 {
		t.Errorf("delivered %d messages, want 5", len(got))
	}
	if quar.Len() != 5 {
		t.Errorf("quarantined %d, want 5", quar.Len())
	}
}

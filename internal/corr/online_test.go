package corr

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"
)

// fullSnapshotGolden is the FNV-64a of a full-triangle Maronna engine's
// snapshot JSON in TestEngineSnapshotBytesPinned, taken when subset
// engines still existed and the layouts were told apart by length.
const fullSnapshotGolden = 0x35c40a4cd6b857fb

// TestOnlineEnginePairSubsetErrors: the online engine computes the
// whole triangle, so every pair subset — valid or not — is refused
// rather than silently ignored. Pairs belongs to the batch engine.
func TestOnlineEnginePairSubsetErrors(t *testing.T) {
	n, m := 5, 8
	cases := []struct {
		name string
		cfg  EngineConfig
	}{
		{"empty", EngineConfig{Type: Pearson, M: m, Pairs: []int{}}},
		{"valid", EngineConfig{Type: Pearson, M: m, Pairs: []int{0, 3, 7}}},
		{"valid-robust", EngineConfig{Type: Maronna, M: m, Pairs: []int{1, 2}}},
		{"out-of-range", EngineConfig{Type: Pearson, M: m, Pairs: []int{0, 99}}},
		{"descending", EngineConfig{Type: Pearson, M: m, Pairs: []int{3, 1}}},
	}
	for _, tc := range cases {
		if _, err := NewOnlineEngine(tc.cfg, n); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// pushColumns feeds columns [from, to) of rets to the engine.
func pushColumns(t *testing.T, e *OnlineEngine, rets [][]float64, from, to int) {
	t.Helper()
	vec := make([]float64, len(rets))
	for u := from; u < to; u++ {
		for i := range vec {
			vec[i] = rets[i][u]
		}
		if _, err := e.Push(vec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineSnapshotBytesPinned: a Maronna engine's snapshot holds one
// warm fit per pair of the triangle, and its JSON is byte for byte what
// snapshots already on disk hold.
func TestEngineSnapshotBytesPinned(t *testing.T) {
	n, T, m := 6, 30, 10
	rets := syntheticReturns(47, n, T)
	full, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m}, n)
	if err != nil {
		t.Fatal(err)
	}
	pushColumns(t, full, rets, 0, T)
	snap := full.Snapshot()
	if nPairs := n * (n - 1) / 2; len(snap.Fits) != nPairs {
		t.Fatalf("snapshot holds %d fits, want %d", len(snap.Fits), nPairs)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	if got := h.Sum64(); got != fullSnapshotGolden {
		t.Errorf("full-triangle snapshot bytes changed: fnv %#x, want %#x", got, uint64(fullSnapshotGolden))
	}
}

// TestPushIntoReusesOneMatrix: PushInto writes what Push returns, into
// the caller's matrix, without Push's matrix allocation; it leaves the
// matrix untouched while the window warms and writes every slot once
// it is full.
func TestPushIntoReusesOneMatrix(t *testing.T) {
	n, T, m := 8, 40, 12
	rets := syntheticReturns(53, n, T)
	vec := make([]float64, n)
	for _, cfg := range []EngineConfig{{Type: Pearson, M: m}, {Type: Maronna, M: m}} {
		a, err := NewOnlineEngine(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewOnlineEngine(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		dst := NewMatrix(n)
		for k := range dst.vals {
			dst.vals[k] = 7 // a sentinel no coefficient can equal
		}
		for u := 0; u < T; u++ {
			for i := range vec {
				vec[i] = rets[i][u]
			}
			want, err := a.Push(vec)
			if err != nil {
				t.Fatal(err)
			}
			ready, err := b.PushInto(vec, dst)
			if err != nil || ready != (want != nil) {
				t.Fatalf("u=%d: PushInto ready %v err %v, Push returned %v", u, ready, err, want)
			}
			for k, got := range dst.vals {
				switch {
				case !ready:
					if got != 7 {
						t.Fatalf("u=%d pair %d: slot written (%v) while warming", u, k, got)
					}
				case math.Float64bits(got) != math.Float64bits(want.AtPair(k)):
					t.Fatalf("u=%d pair %d: PushInto %v, Push %v", u, k, got, want.AtPair(k))
				}
			}
		}
		into := testing.AllocsPerRun(50, func() { b.PushInto(vec, dst) })
		if push := testing.AllocsPerRun(50, func() { a.Push(vec) }); into >= push {
			t.Errorf("%+v: PushInto allocates %.0f times per push, Push %.0f", cfg, into, push)
		}
		if _, err := b.PushInto(vec, NewMatrix(n+1)); err == nil {
			t.Error("PushInto accepted a matrix of the wrong order")
		}
	}
}

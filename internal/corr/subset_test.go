package corr

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fullSnapshotGolden is the FNV-64a of the full-triangle engine's
// snapshot JSON in TestSubsetSnapshotCarriesOnlySelectedFits, taken at
// the commit before subset snapshots stopped carrying the triangle.
const fullSnapshotGolden = 0x35c40a4cd6b857fb

// TestOnlineEnginePairSubset pins the partition seam the signal broker
// relies on: a subset engine's selected-pair coefficients are
// bit-identical to a full engine's, unselected matrix slots stay zero,
// and a snapshot/restore of the subset engine resumes its warm chain
// exactly.
func TestOnlineEnginePairSubset(t *testing.T) {
	n, T, m := 8, 48, 12
	rets := syntheticReturns(41, n, T)
	subset := []int{1, 4, 9, 13, 20, 27}
	for _, ty := range []Type{Pearson, Maronna, Combined} {
		t.Run(ty.String(), func(t *testing.T) {
			full, err := NewOnlineEngine(EngineConfig{Type: ty, M: m, Workers: 2}, n)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := NewOnlineEngine(EngineConfig{Type: ty, M: m, Workers: 3, Pairs: subset, TileSize: 2}, n)
			if err != nil {
				t.Fatal(err)
			}
			selected := make(map[int]bool, len(subset))
			for _, id := range subset {
				selected[id] = true
			}
			nPairs := n * (n - 1) / 2
			vec := make([]float64, n)
			for u := 0; u < T; u++ {
				for i := 0; i < n; i++ {
					vec[i] = rets[i][u]
				}
				mf, err := full.Push(vec)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := sub.Push(vec)
				if err != nil {
					t.Fatal(err)
				}
				if (mf == nil) != (ms == nil) {
					t.Fatalf("u=%d: readiness mismatch", u)
				}
				if mf == nil {
					continue
				}
				for k := 0; k < nPairs; k++ {
					got := ms.AtPair(k)
					if selected[k] {
						if math.Float64bits(got) != math.Float64bits(mf.AtPair(k)) {
							t.Fatalf("u=%d pair %d: subset %v != full %v", u, k, got, mf.AtPair(k))
						}
					} else if got != 0 {
						t.Fatalf("u=%d pair %d: unselected slot = %v, want 0", u, k, got)
					}
				}
			}
		})
	}
}

// TestOnlineEnginePairSubsetSnapshotResume restores a subset engine's
// snapshot into a fresh identically-configured engine mid-stream and
// requires bit-identical continuation — the broker's per-partition
// state-store contract.
func TestOnlineEnginePairSubsetSnapshotResume(t *testing.T) {
	n, T, m, cut := 6, 40, 10, 24
	rets := syntheticReturns(43, n, T)
	subset := []int{0, 3, 7, 11, 14}
	cfg := EngineConfig{Type: Combined, M: m, Pairs: subset}
	orig, err := NewOnlineEngine(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]float64, n)
	push := func(e *OnlineEngine, u int) *Matrix {
		for i := 0; i < n; i++ {
			vec[i] = rets[i][u]
		}
		mx, err := e.Push(vec)
		if err != nil {
			t.Fatal(err)
		}
		return mx
	}
	for u := 0; u < cut; u++ {
		push(orig, u)
	}
	snap := orig.Snapshot()

	resumed, err := NewOnlineEngine(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for u := cut; u < T; u++ {
		mo := push(orig, u)
		mr := push(resumed, u)
		for _, k := range subset {
			if math.Float64bits(mo.AtPair(k)) != math.Float64bits(mr.AtPair(k)) {
				t.Fatalf("u=%d pair %d: resumed %v != original %v", u, k, mr.AtPair(k), mo.AtPair(k))
			}
		}
	}
}

func TestOnlineEnginePairSubsetFingerprint(t *testing.T) {
	n, m := 6, 10
	full, _ := NewOnlineEngine(EngineConfig{Type: Pearson, M: m}, n)
	subA, _ := NewOnlineEngine(EngineConfig{Type: Pearson, M: m, Pairs: []int{0, 2}}, n)
	subB, _ := NewOnlineEngine(EngineConfig{Type: Pearson, M: m, Pairs: []int{0, 3}}, n)
	if full.Fingerprint() == subA.Fingerprint() {
		t.Error("subset fingerprint should differ from full")
	}
	if subA.Fingerprint() == subB.Fingerprint() {
		t.Error("different subsets should fingerprint differently")
	}
	if !strings.Contains(subA.Fingerprint(), "pairs=2:") {
		t.Errorf("subset fingerprint %q missing pair count", subA.Fingerprint())
	}
}

func TestOnlineEnginePairSubsetErrors(t *testing.T) {
	n, m := 5, 8
	cases := []struct {
		name string
		cfg  EngineConfig
	}{
		{"repair-psd", EngineConfig{Type: Pearson, M: m, Pairs: []int{0, 1}, RepairPSD: true}},
		{"empty", EngineConfig{Type: Pearson, M: m, Pairs: []int{}}},
		{"out-of-range", EngineConfig{Type: Pearson, M: m, Pairs: []int{0, 99}}},
		{"negative", EngineConfig{Type: Pearson, M: m, Pairs: []int{-1, 2}}},
		{"descending", EngineConfig{Type: Pearson, M: m, Pairs: []int{3, 1}}},
		{"duplicate", EngineConfig{Type: Pearson, M: m, Pairs: []int{2, 2}}},
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

// TestSubsetSnapshotCarriesOnlySelectedFits: a subset engine's snapshot
// holds one warm fit per selected pair — not the whole triangle with
// the unselected majority zero — and the two layouts reject each other,
// so a processor handed a snapshot of the old length cold-starts. A
// full-triangle engine's snapshot is byte for byte what it was.
func TestSubsetSnapshotCarriesOnlySelectedFits(t *testing.T) {
	n, T, m := 6, 30, 10
	rets := syntheticReturns(47, n, T)
	subset := []int{0, 3, 7, 11, 14}
	nPairs := n * (n - 1) / 2
	sub, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m, Pairs: subset}, n)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m}, n)
	if err != nil {
		t.Fatal(err)
	}
	pushColumns(t, sub, rets, 0, T)
	pushColumns(t, full, rets, 0, T)

	snap, fullSnap := sub.Snapshot(), full.Snapshot()
	if len(snap.Fits) != len(subset) || len(fullSnap.Fits) != nPairs {
		t.Fatalf("snapshot fits: subset engine %d, full engine %d; want %d and %d", len(snap.Fits), len(fullSnap.Fits), len(subset), nPairs)
	}
	for i, k := range subset {
		if !snap.Fits[i].Valid || snap.Fits[i] != fullSnap.Fits[k] {
			t.Fatalf("subset fit %d is not pair %d's warm fit: %+v vs %+v", i, k, snap.Fits[i], fullSnap.Fits[k])
		}
	}
	blob, err := json.Marshal(fullSnap)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	if got := h.Sum64(); got != fullSnapshotGolden {
		t.Errorf("full-triangle snapshot bytes changed: fnv %#x, want %#x", got, uint64(fullSnapshotGolden))
	}

	// Old layout → new engine: the triangle-long fit list is refused and
	// the engine is left as it was.
	old := sub.Snapshot()
	old.Fits = make([]FitState, nPairs)
	for i, k := range subset {
		old.Fits[k] = snap.Fits[i]
	}
	fresh, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m, Pairs: subset}, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(old); err == nil || !strings.Contains(err.Error(), "warm fits") {
		t.Fatalf("triangle-long fits restored into a subset engine: %v", err)
	}
	if fresh.Ready() {
		t.Fatal("a rejected snapshot touched the engine")
	}
	// New layout → full engine (and so any engine expecting the
	// triangle): refused the same way.
	if err := full.Restore(&EngineSnapshot{Schema: snap.Schema, Type: snap.Type, N: n, M: m,
		Head: snap.Head, Count: snap.Count, Windows: snap.Windows, Fits: snap.Fits}); err == nil {
		t.Fatal("selected-only fits restored into a full-triangle engine")
	}
	// And the new layout resumes the subset engine's warm chain exactly.
	cold, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m, Pairs: subset}, n)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := NewOnlineEngine(EngineConfig{Type: Maronna, M: m, Pairs: subset}, n)
	if err != nil {
		t.Fatal(err)
	}
	pushColumns(t, cold, rets, 0, 20)
	if err := mid.Restore(cold.Snapshot()); err != nil {
		t.Fatal(err)
	}
	pushColumns(t, cold, rets, 20, T)
	pushColumns(t, mid, rets, 20, T)
	if !reflect.DeepEqual(mid.Snapshot(), cold.Snapshot()) {
		t.Fatal("restored subset engine diverged from the one that never stopped")
	}
}

// TestPushIntoReusesOneMatrix: PushInto writes what Push returns, into
// the caller's matrix, without Push's matrix allocation; a subset
// engine leaves the unselected slots alone.
func TestPushIntoReusesOneMatrix(t *testing.T) {
	n, T, m := 8, 40, 12
	rets := syntheticReturns(53, n, T)
	subset := []int{1, 4, 9, 13, 20, 27}
	vec := make([]float64, n)
	for _, cfg := range []EngineConfig{
		{Type: Pearson, M: m}, {Type: Pearson, M: m, Pairs: subset},
		{Type: Maronna, M: m, Pairs: subset}, {Type: Pearson, M: m, RepairPSD: true},
	} {
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
				selected := cfg.Pairs == nil || slices.Contains(subset, k)
				switch {
				case !ready || !selected:
					if got != 7 {
						t.Fatalf("u=%d pair %d: slot written (%v) while warming or unselected", u, k, got)
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

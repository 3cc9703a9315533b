package corr

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// snapReturns builds a deterministic T×n return stream with occasional
// outliers so the robust warm-fit chain exercises both warm and cold
// paths.
func snapReturns(t, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, t)
	common := 0.0
	for s := range out {
		common = 0.6*common + 0.01*rng.NormFloat64()
		v := make([]float64, n)
		for i := range v {
			v[i] = common + 0.02*rng.NormFloat64()
			if rng.Float64() < 0.02 {
				v[i] += 0.5 // outlier burst
			}
		}
		out[s] = v
	}
	return out
}

func pushAll(t testing.TB, e *OnlineEngine, rets [][]float64) []*Matrix {
	t.Helper()
	var out []*Matrix
	for _, v := range rets {
		m, err := e.Push(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func sameMatrixBits(a, b *Matrix) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

// TestEngineSnapshotResumeBitIdentical is the crash-safety core claim:
// an engine restored from a mid-day snapshot (round-tripped through
// JSON, as the supervise store would persist it) produces bit-identical
// matrices for the rest of the day.
func TestEngineSnapshotResumeBitIdentical(t *testing.T) {
	const n, m, total = 6, 16, 48
	rets := snapReturns(total, n, 41)
	for _, typ := range Types() {
		t.Run(typ.String(), func(t *testing.T) {
			cfg := EngineConfig{Type: typ, M: m, Workers: 3}
			ref, err := NewOnlineEngine(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			refMats := pushAll(t, ref, rets)

			// Crash at several cut points, including mid-warmup.
			for _, cut := range []int{5, m, m + 7, total - 3} {
				crashed, err := NewOnlineEngine(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				pushAll(t, crashed, rets[:cut])
				raw, err := json.Marshal(crashed.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				var snap EngineSnapshot
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatal(err)
				}
				resumed, err := NewOnlineEngine(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				if err := resumed.Restore(&snap); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				for s := cut; s < total; s++ {
					got, err := resumed.Push(rets[s])
					if err != nil {
						t.Fatal(err)
					}
					if !sameMatrixBits(got, refMats[s]) {
						t.Fatalf("cut %d: matrix at interval %d differs from uninterrupted run", cut, s)
					}
				}
			}
		})
	}
}

// TestRejectedPushLeavesEngineUntouched: a vector PushInto rejects as
// non-finite must not reach the ring, even in the stocks before the bad
// value, so a snapshot taken after the failed call equals one taken
// before it.
func TestRejectedPushLeavesEngineUntouched(t *testing.T) {
	const n, m = 3, 4
	rets := snapReturns(m+2, n, 29)
	for _, typ := range Types() {
		e, err := NewOnlineEngine(EngineConfig{Type: typ, M: m}, n)
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, e, rets)
		before := e.Snapshot()
		if _, err := e.PushInto([]float64{9, math.NaN(), 1}, NewMatrix(n)); err == nil {
			t.Fatalf("%v: NaN return accepted", typ)
		}
		if after := e.Snapshot(); !reflect.DeepEqual(before, after) {
			t.Fatalf("%v: rejected push changed the engine:\nbefore %+v\nafter  %+v", typ, before, after)
		}
	}
}

func TestEngineSnapshotFingerprintEncodesConfig(t *testing.T) {
	mk := func(cfg EngineConfig, n int) string {
		e, err := NewOnlineEngine(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		return e.Fingerprint()
	}
	base := mk(EngineConfig{Type: Maronna, M: 16}, 6)
	for name, other := range map[string]string{
		"type": mk(EngineConfig{Type: Pearson, M: 16}, 6),
		"m":    mk(EngineConfig{Type: Maronna, M: 32}, 6),
		"n":    mk(EngineConfig{Type: Maronna, M: 16}, 7),
	} {
		if other == base {
			t.Errorf("fingerprint does not distinguish %s", name)
		}
	}
}

// TestEngineFingerprintPinned pins the exact fingerprint strings that
// snapshot stores embed. A snapshot already on disk restores only when
// its stored fingerprint equals the engine's, so any change here
// strands every saved engine state. The literal psd=false stays even
// though no engine option sets it any more.
func TestEngineFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  EngineConfig
		n    int
		want string
	}{
		{EngineConfig{Type: Pearson, M: 100}, 61,
			"marketminer/online-engine/v1|Pearson|n=61|m=100|psd=false"},
		{EngineConfig{Type: Maronna, M: 50}, 8,
			"marketminer/online-engine/v1|Maronna|n=8|m=50|psd=false"},
	} {
		e, err := NewOnlineEngine(c.cfg, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Fingerprint(); got != c.want {
			t.Errorf("fingerprint = %q, want %q", got, c.want)
		}
	}
}

// TestEngineRestoreRejectsBadSnapshots is the satellite-6 table: every
// malformed, non-finite, or out-of-range field must be rejected, and a
// rejected restore must leave the engine untouched.
func TestEngineRestoreRejectsBadSnapshots(t *testing.T) {
	const n, m = 5, 8
	cfg := EngineConfig{Type: Maronna, M: m, Workers: 2}
	rets := snapReturns(m+4, n, 9)

	mkSnap := func() *EngineSnapshot {
		e, err := NewOnlineEngine(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, e, rets)
		return e.Snapshot()
	}

	cases := []struct {
		name   string
		mutate func(s *EngineSnapshot)
		want   string
	}{
		{"wrong-schema", func(s *EngineSnapshot) { s.Schema = "marketminer/online-engine/v0" }, "schema"},
		{"wrong-type", func(s *EngineSnapshot) { s.Type = "Pearson" }, "estimator type"},
		{"wrong-n", func(s *EngineSnapshot) { s.N = n + 1 }, "shape"},
		{"wrong-m", func(s *EngineSnapshot) { s.M = m * 2 }, "shape"},
		{"head-negative", func(s *EngineSnapshot) { s.Head = -1 }, "head"},
		{"head-past-ring", func(s *EngineSnapshot) { s.Head = m }, "head"},
		{"count-negative", func(s *EngineSnapshot) { s.Count = -2 }, "count"},
		{"count-past-window", func(s *EngineSnapshot) { s.Count = m + 1 }, "count"},
		{"head-ahead-of-partial-count", func(s *EngineSnapshot) { s.Head, s.Count = 7, 3 }, "head"},
		{"missing-window", func(s *EngineSnapshot) { s.Windows = s.Windows[:n-1] }, "windows"},
		{"short-window", func(s *EngineSnapshot) { s.Windows[2] = s.Windows[2][:m-1] }, "points"},
		{"nan-window", func(s *EngineSnapshot) { s.Windows[1][3] = math.NaN() }, "non-finite"},
		{"inf-window", func(s *EngineSnapshot) { s.Windows[4][0] = math.Inf(1) }, "non-finite"},
		{"missing-fits", func(s *EngineSnapshot) { s.Fits = s.Fits[:len(s.Fits)-1] }, "warm fits"},
		{"nan-fit-location", func(s *EngineSnapshot) { s.Fits[0].T1 = math.NaN() }, "non-finite"},
		{"inf-fit-scatter", func(s *EngineSnapshot) { s.Fits[1].V12 = math.Inf(-1) }, "non-finite"},
		{"nan-rho", func(s *EngineSnapshot) { s.Fits[2].Rho = math.NaN() }, "non-finite"},
		{"rho-out-of-range", func(s *EngineSnapshot) { s.Fits[3].Rho = 1.5 }, "outside [-1,1]"},
		{"negative-scatter", func(s *EngineSnapshot) { s.Fits[4].V11 = -0.25 }, "negative scatter"},
		{"negative-iters", func(s *EngineSnapshot) { s.Fits[0].Iters = -3 }, "iteration count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewOnlineEngine(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			warm := pushAll(t, e, rets)
			control, err := NewOnlineEngine(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			pushAll(t, control, rets)

			s := mkSnap()
			tc.mutate(s)
			err = e.Restore(s)
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// The engine must be untouched: its next matrix matches a
			// control engine that never saw the failed restore.
			next := rets[len(rets)-1]
			got, err := e.Push(next)
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := control.Push(next)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatrixBits(got, wantM) {
				t.Errorf("failed restore perturbed engine state (last warm matrix %v)", warm[len(warm)-1] != nil)
			}
		})
	}
}

func TestEngineRestoreRejectsFitsForPearson(t *testing.T) {
	const n, m = 4, 8
	e, err := NewOnlineEngine(EngineConfig{Type: Pearson, M: m}, n)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, e, snapReturns(m, n, 13))
	s := e.Snapshot()
	if len(s.Fits) != 0 {
		t.Fatalf("Pearson snapshot carries %d fits", len(s.Fits))
	}
	s.Fits = []FitState{{Valid: true}}
	if err := e.Restore(s); err == nil || !strings.Contains(err.Error(), "warm fits") {
		t.Errorf("fits accepted into a Pearson engine: %v", err)
	}
}

func TestEngineSnapshotIsDeepCopy(t *testing.T) {
	const n, m = 4, 8
	cfg := EngineConfig{Type: Maronna, M: m}
	e, err := NewOnlineEngine(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	rets := snapReturns(m+2, n, 21)
	pushAll(t, e, rets[:m])
	s := e.Snapshot()
	// Mutating the snapshot must not reach into the live engine.
	s.Windows[0][0] = 1e9
	s.Fits[0].Rho = 0.123456

	e2, err := NewOnlineEngine(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, e2, rets[:m])
	a, err := e.Push(rets[m])
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.Push(rets[m])
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatrixBits(a, b) {
		t.Error("snapshot shares memory with the engine")
	}
}

// FuzzEngineRestore feeds arbitrary bytes through json.Unmarshal and
// Restore into small Pearson, Maronna and Combined engines.
// Restore must never panic; a snapshot it accepts must round-trip
// through Snapshot, and the engine's next push of a finite vector must
// succeed with every coefficient in [-1, 1].
func FuzzEngineRestore(f *testing.F) {
	const n, m = 4, 6
	configs := []EngineConfig{
		{Type: Pearson, M: m},
		{Type: Maronna, M: m},
		{Type: Combined, M: m},
	}
	rets := snapReturns(m+3, n, 17)
	for _, cfg := range configs {
		for _, pushes := range []int{m / 2, m, m + 3} { // Count < M, Count = M at head 0 and past it
			e, err := NewOnlineEngine(cfg, n)
			if err != nil {
				f.Fatal(err)
			}
			pushAll(f, e, rets[:pushes])
			seed, err := json.Marshal(e.Snapshot())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
		}
	}
	next := rets[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		var s EngineSnapshot
		if json.Unmarshal(data, &s) != nil {
			return
		}
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			e, err := NewOnlineEngine(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			if e.Restore(&s) != nil {
				continue
			}
			got, err := json.Marshal(e.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%+v: restored snapshot\n%s\nreads back as\n%s", cfg, want, got)
			}
			mx, err := e.Push(next)
			if err != nil {
				t.Fatalf("%+v: push after restore: %v", cfg, err)
			}
			if mx == nil {
				continue
			}
			for k, c := range mx.Values() {
				if !(c >= -1 && c <= 1) {
					t.Fatalf("%+v: pair %d coefficient %v after restore", cfg, k, c)
				}
			}
		}
	})
}

package corr

import (
	"fmt"
	"math"
)

// EngineSnapshotSchema identifies the serialized warm-state layout of
// an OnlineEngine. Bump it whenever the meaning of a field changes so
// stale snapshots are rejected instead of silently misread.
const EngineSnapshotSchema = "marketminer/online-engine/v1"

// FitState is the serializable mirror of Fit. The engine's warm-start
// chain is deterministic in these fields, so restoring them (plus the
// ring windows) resumes the robust iteration exactly where the crashed
// process left it.
type FitState struct {
	T1        float64 `json:"t1"`
	T2        float64 `json:"t2"`
	V11       float64 `json:"v11"`
	V22       float64 `json:"v22"`
	V12       float64 `json:"v12"`
	Rho       float64 `json:"rho"`
	Iters     int     `json:"iters"`
	Converged bool    `json:"converged"`
	Seeded    bool    `json:"seeded"`
	Valid     bool    `json:"valid"`
}

// EngineSnapshot is the complete warm state of an OnlineEngine at an
// interval boundary: the ring windows (as stored, head-aligned), the
// ring cursor, and the warm fits of the robust types — one per selected
// pair, in ascending pair-id order (the whole triangle unless the
// engine computes a subset). Shared
// per-push state (window sums, cold initialisers, scratch copies) is
// deliberately absent — it is recomputed from the windows on the next
// Push, so a restored engine produces bit-identical matrices to one
// that never stopped.
type EngineSnapshot struct {
	Schema  string      `json:"schema"`
	Type    string      `json:"type"`
	N       int         `json:"n"`
	M       int         `json:"m"`
	Head    int         `json:"head"`
	Count   int         `json:"count"`
	Windows [][]float64 `json:"windows"`
	Fits    []FitState  `json:"fits,omitempty"`
}

// Fingerprint summarises the configuration a snapshot is only valid
// for. Snapshot stores embed it so a snapshot taken under one engine
// configuration is never restored into another. Subset engines (a
// partition processor's slice of the triangle) append a hash of the
// selected pair ids, so a snapshot never crosses partition boundaries
// even when shapes coincide.
func (e *OnlineEngine) Fingerprint() string {
	fp := fmt.Sprintf("%s|%s|n=%d|m=%d|psd=%v", EngineSnapshotSchema, e.cfg.Type, e.n, e.cfg.M, e.cfg.RepairPSD)
	if len(e.sel) != len(e.pairs) {
		h := uint64(14695981039346656037) // FNV-64a offset basis
		for _, id := range e.sel {
			h = (h ^ uint64(id)) * 1099511628211
		}
		fp += fmt.Sprintf("|pairs=%d:%016x", len(e.sel), h)
	}
	return fp
}

// Snapshot captures the engine's warm state. The result shares no
// memory with the engine, so it can be serialized (or mutated) while
// the engine keeps pushing.
func (e *OnlineEngine) Snapshot() *EngineSnapshot {
	s := &EngineSnapshot{
		Schema: EngineSnapshotSchema,
		Type:   e.cfg.Type.String(),
		N:      e.n,
		M:      e.cfg.M,
		Head:   e.head,
		Count:  e.count,
	}
	s.Windows = make([][]float64, e.n)
	for i, w := range e.windows {
		s.Windows[i] = append([]float64(nil), w...)
	}
	if e.fits != nil {
		s.Fits = make([]FitState, len(e.sel))
		for i, k := range e.sel {
			f := e.fits[k]
			s.Fits[i] = FitState{
				T1: f.T1, T2: f.T2,
				V11: f.V11, V22: f.V22, V12: f.V12,
				Rho: f.Rho, Iters: f.Iters,
				Converged: f.Converged, Seeded: f.Seeded, Valid: f.Valid,
			}
		}
	}
	return s
}

// Restore replaces the engine's warm state with a snapshot taken from
// an identically configured engine. Every field is validated before
// anything is touched — a snapshot that fails validation (wrong shape,
// non-finite values, out-of-range coefficients) leaves the engine
// exactly as it was, so callers can log the error and cold-start.
func (e *OnlineEngine) Restore(s *EngineSnapshot) error {
	if err := e.validateSnapshot(s); err != nil {
		return fmt.Errorf("corr: restore: %w", err)
	}
	for i, w := range s.Windows {
		copy(e.windows[i], w)
	}
	e.head = s.Head
	e.count = s.Count
	for i, f := range s.Fits {
		e.fits[e.sel[i]] = Fit{
			T1: f.T1, T2: f.T2,
			V11: f.V11, V22: f.V22, V12: f.V12,
			Rho: f.Rho, Iters: f.Iters,
			Converged: f.Converged, Seeded: f.Seeded, Valid: f.Valid,
		}
	}
	e.haveInit = false
	return nil
}

func (e *OnlineEngine) validateSnapshot(s *EngineSnapshot) error {
	if s == nil {
		return fmt.Errorf("nil snapshot")
	}
	if s.Schema != EngineSnapshotSchema {
		return fmt.Errorf("schema %q, want %q", s.Schema, EngineSnapshotSchema)
	}
	if s.Type != e.cfg.Type.String() {
		return fmt.Errorf("estimator type %q, engine is %q", s.Type, e.cfg.Type)
	}
	if s.N != e.n || s.M != e.cfg.M {
		return fmt.Errorf("shape n=%d m=%d, engine is n=%d m=%d", s.N, s.M, e.n, e.cfg.M)
	}
	if s.Head < 0 || s.Head >= s.M {
		return fmt.Errorf("head %d outside ring [0,%d)", s.Head, s.M)
	}
	if s.Count < 0 || s.Count > s.M {
		return fmt.Errorf("count %d outside [0,%d]", s.Count, s.M)
	}
	if len(s.Windows) != s.N {
		return fmt.Errorf("%d windows, want %d", len(s.Windows), s.N)
	}
	for i, w := range s.Windows {
		if len(w) != s.M {
			return fmt.Errorf("window %d has %d points, want %d", i, len(w), s.M)
		}
		for j, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("window %d point %d is non-finite (%v)", i, j, v)
			}
		}
	}
	wantFits := 0
	if e.fits != nil {
		wantFits = len(e.sel)
	}
	if len(s.Fits) != wantFits {
		return fmt.Errorf("%d warm fits, engine needs %d", len(s.Fits), wantFits)
	}
	for k, f := range s.Fits {
		for _, v := range [...]float64{f.T1, f.T2, f.V11, f.V22, f.V12, f.Rho} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fit %d has a non-finite field (%+v)", k, f)
			}
		}
		if f.Iters < 0 {
			return fmt.Errorf("fit %d has negative iteration count %d", k, f.Iters)
		}
		if f.Valid {
			if f.Rho < -1 || f.Rho > 1 {
				return fmt.Errorf("fit %d rho %v outside [-1,1]", k, f.Rho)
			}
			if f.V11 < 0 || f.V22 < 0 {
				return fmt.Errorf("fit %d has negative scatter (v11=%v v22=%v)", k, f.V11, f.V22)
			}
		}
	}
	return nil
}

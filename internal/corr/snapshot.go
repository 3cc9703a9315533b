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
// interval boundary: the ring windows (one per stock, indexed by ring
// slot, so head-aligned), the
// ring cursor, and the warm fits of the robust types — one per pair,
// in ascending pair-id order. Shared per-push state (the cross-moment
// table, cold initialisers, scratch copies) is
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
// configuration is never restored into another. The constant
// psd=false field is the retired PSD-repair option; it stays so
// snapshots already on disk still match.
func (e *OnlineEngine) Fingerprint() string {
	return fmt.Sprintf("%s|%s|n=%d|m=%d|psd=false", EngineSnapshotSchema, e.cfg.Type, e.n, e.cfg.M)
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
	for i := range s.Windows {
		w := make([]float64, e.cfg.M)
		for slot := range w {
			w[slot] = e.rows[slot*e.stride+i]
		}
		s.Windows[i] = w
	}
	if e.fits != nil {
		s.Fits = make([]FitState, len(e.fits))
		for i, f := range e.fits {
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
		for slot, v := range w {
			e.rows[slot*e.stride+i] = v
		}
	}
	e.head = s.Head
	e.count = s.Count
	for i, f := range s.Fits {
		e.fits[i] = Fit{
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
	if s.Count < s.M && s.Head != s.Count {
		// Until the ring is full every push lands at the cursor, so
		// head = count; any other head would read slots no push wrote.
		return fmt.Errorf("head %d with %d of %d points pushed, want head = count", s.Head, s.Count, s.M)
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
	if len(s.Fits) != len(e.fits) {
		return fmt.Errorf("%d warm fits, engine needs %d", len(s.Fits), len(e.fits))
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

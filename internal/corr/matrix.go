package corr

import (
	"fmt"
	"math"

	"marketminer/internal/taq"
)

// Matrix is a symmetric n×n correlation matrix with unit diagonal,
// stored as the strictly-upper triangle in taq.PairID order. For the
// paper's 61-stock universe a Matrix holds 1830 values; MarketMiner
// produces one per grid interval per trading day.
type Matrix struct {
	n    int
	vals []float64
}

// NewMatrix allocates an identity correlation matrix of order n.
func NewMatrix(n int) *Matrix {
	if n < 1 {
		n = 1
	}
	return &Matrix{n: n, vals: make([]float64, n*(n-1)/2)}
}

// NumPairs returns n(n-1)/2.
func (m *Matrix) NumPairs() int { return len(m.vals) }

// At returns C[i][j] (1 on the diagonal).
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 1
	}
	return m.vals[taq.PairID(i, j, m.n)]
}

// AtPair returns the coefficient by canonical pair id.
func (m *Matrix) AtPair(id int) float64 { return m.vals[id] }

// SetPair stores the coefficient by canonical pair id.
func (m *Matrix) SetPair(id int, c float64) { m.vals[id] = c }

// Values exposes the underlying triangle (pair-id order). The slice is
// shared, not copied; treat as read-only.
func (m *Matrix) Values() []float64 { return m.vals }

// Validate checks every coefficient is finite and in [-1, 1].
func (m *Matrix) Validate() error {
	for id, v := range m.vals {
		if math.IsNaN(v) || v < -1 || v > 1 {
			return fmt.Errorf("corr: coefficient %d out of range: %v", id, v)
		}
	}
	return nil
}

package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// Only the lower triangle (including the diagonal) of a is read.
// A small non-negative jitter can be supplied to stabilise nearly
// singular penalized systems; it is added to the diagonal.
func NewCholesky(a *Matrix, jitter float64) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.Data[i*n+j]
			if i == j {
				sum += jitter
			}
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// Solve solves A x = b and returns x.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic("linalg: dimension mismatch in Cholesky.Solve")
	}
	x := make([]float64, c.n)
	copy(x, b)
	c.SolveInPlace(x)
	return x
}

// SolveInPlace solves A x = b, overwriting b with x.
func (c *Cholesky) SolveInPlace(b []float64) {
	c.SolveL(b)
	// Back substitution: Lᵀ x = y.
	n := c.n
	l := c.l
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * b[k]
		}
		b[i] = sum / l[i*n+i]
	}
}

// SolveL solves the forward system L y = b, overwriting b with y.
func (c *Cholesky) SolveL(b []float64) {
	n := c.n
	l := c.l
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l[i*n : i*n+i]
		for k, v := range row {
			sum -= v * b[k]
		}
		b[i] = sum / l[i*n+i]
	}
}

// SolveLMatrix solves L X = B for every column of b at once,
// overwriting b with X. It works on whole rows of b (row i of X is row
// i of B minus multiples of the rows above it), so its inner loops are
// independent and contiguous rather than dependent dot products.
func (c *Cholesky) SolveLMatrix(b *Matrix) {
	if b.Rows != c.n {
		panic("linalg: dimension mismatch in Cholesky.SolveLMatrix")
	}
	n := c.n
	for i := 0; i < n; i++ {
		xi := b.Row(i)
		for k, v := range c.l[i*n : i*n+i] {
			AXPY(-v, b.Row(k), xi)
		}
		Scale(xi, 1/c.l[i*n+i])
	}
}

// SolveLTMatrix solves Lᵀ X = B for every column of b at once,
// overwriting b with X, by row operations like SolveLMatrix.
func (c *Cholesky) SolveLTMatrix(b *Matrix) {
	if b.Rows != c.n {
		panic("linalg: dimension mismatch in Cholesky.SolveLTMatrix")
	}
	n := c.n
	for i := n - 1; i >= 0; i-- {
		xi := b.Row(i)
		Scale(xi, 1/c.l[i*n+i])
		for k, v := range c.l[i*n : i*n+i] {
			AXPY(-v, xi, b.Row(k))
		}
	}
}

// SolveMatrix solves A X = B column-by-column and returns X.
func (c *Cholesky) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != c.n {
		panic("linalg: dimension mismatch in Cholesky.SolveMatrix")
	}
	x := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, c.n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		c.SolveInPlace(col)
		for i := 0; i < b.Rows; i++ {
			x.Set(i, j, col[i])
		}
	}
	return x
}

// Inverse returns A⁻¹ as a dense matrix.
func (c *Cholesky) Inverse() *Matrix {
	inv := NewMatrix(c.n, c.n)
	e := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		c.SolveInPlace(e)
		for i := 0; i < c.n; i++ {
			inv.Set(i, j, e[i])
		}
	}
	return inv
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*c.n+i])
	}
	return 2 * s
}

// PackLower returns the lower-triangular factor in packed row-major form
// (n(n+1)/2 values), for serialization.
func (c *Cholesky) PackLower() []float64 {
	out := make([]float64, 0, c.n*(c.n+1)/2)
	for i := 0; i < c.n; i++ {
		out = append(out, c.l[i*c.n:i*c.n+i+1]...)
	}
	return out
}

// NewCholeskyFromPacked reconstructs a Cholesky from a packed lower
// triangle produced by PackLower.
func NewCholeskyFromPacked(n int, packed []float64) (*Cholesky, error) {
	if len(packed) != n*(n+1)/2 {
		return nil, fmt.Errorf("linalg: packed length %d for dimension %d (want %d)", len(packed), n, n*(n+1)/2)
	}
	l := make([]float64, n*n)
	k := 0
	for i := 0; i < n; i++ {
		copy(l[i*n:i*n+i+1], packed[k:k+i+1])
		k += i + 1
		if l[i*n+i] <= 0 || math.IsNaN(l[i*n+i]) {
			return nil, fmt.Errorf("linalg: packed factor has invalid diagonal at %d", i)
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// SolveSPD is a convenience wrapper: factorize a (with escalating jitter on
// failure) and solve a x = b. It returns an error only if the matrix stays
// numerically indefinite even after substantial regularization.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	ch, err := FactorizeSPD(a)
	if err != nil {
		return nil, err
	}
	return ch.Solve(b), nil
}

// FactorizeSPD attempts a Cholesky factorization with escalating diagonal
// jitter: 0, then scaled multiples of the mean diagonal. GAM penalized
// normal-equation matrices are positive semi-definite by construction but
// can be numerically singular when a basis column is empty; the jitter
// ridge makes the solve well defined without visibly biasing the fit.
func FactorizeSPD(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: FactorizeSPD of non-square matrix")
	}
	var meanDiag float64
	for i := 0; i < a.Rows; i++ {
		meanDiag += math.Abs(a.At(i, i))
	}
	if a.Rows > 0 {
		meanDiag /= float64(a.Rows)
	}
	if meanDiag == 0 {
		meanDiag = 1
	}
	jitters := []float64{0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2}
	var lastErr error
	for _, j := range jitters {
		ch, err := NewCholesky(a, j*meanDiag)
		if err == nil {
			return ch, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

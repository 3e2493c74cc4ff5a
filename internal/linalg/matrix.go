// Package linalg provides the small dense linear-algebra kernel used by
// the GAM fitter and the statistics helpers: dense matrices, Cholesky
// factorization, triangular solves, a symmetric eigensolver and a
// handful of BLAS-like updates.
//
// The package is deliberately minimal: everything GEF needs is symmetric
// positive (semi-)definite solves, plus one symmetric eigendecomposition
// per GAM λ search (SymEigen: Householder tridiagonalization and
// implicit QL, after EISPACK tred2/tql2), on matrices of a few hundred
// columns, so a straightforward row-major implementation with good
// cache behaviour is both sufficient and easy to audit.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have
// equal length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch in Mul: %d×%d by %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("linalg: dimension mismatch in MulVec: %d×%d by %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulTVec returns aᵀ·x.
func MulTVec(a *Matrix, x []float64) []float64 {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("linalg: dimension mismatch in MulTVec: %d×%d by %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// AddScaled computes m += alpha*other in place.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: dimension mismatch in AddScaled")
	}
	for i, v := range other.Data {
		m.Data[i] += alpha * v
	}
}

// SymRankOneUpdate performs m += w * x xᵀ for a symmetric accumulator.
// Only requires x to be the full row; updates the whole matrix (both
// triangles) so callers can use plain solves afterwards.
func (m *Matrix) SymRankOneUpdate(w float64, x []float64) {
	if m.Rows != m.Cols || m.Rows != len(x) {
		panic("linalg: dimension mismatch in SymRankOneUpdate")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		wxi := w * xi
		row := m.Data[i*n : (i+1)*n]
		for j := i; j < n; j++ {
			row[j] += wxi * x[j]
		}
	}
}

// SymSparseRankOneUpdate performs m += w * x xᵀ where x is given in sparse
// form as parallel (idx, val) slices. Only the upper triangle is written;
// call SymmetrizeFromUpper before solving.
func (m *Matrix) SymSparseRankOneUpdate(w float64, idx []int, val []float64) {
	n := m.Cols
	for a, ia := range idx {
		wva := w * val[a]
		if wva == 0 {
			continue
		}
		row := m.Data[ia*n : (ia+1)*n]
		for b := a; b < len(idx); b++ {
			ib := idx[b]
			if ib >= ia {
				row[ib] += wva * val[b]
			} else {
				m.Data[ib*n+ia] += wva * val[b]
			}
		}
	}
}

// SymmetrizeFromUpper copies the upper triangle into the lower triangle.
func (m *Matrix) SymmetrizeFromUpper() {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
}

// Trace returns the sum of the diagonal of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// a and b; used by tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: dimension mismatch in MaxAbsDiff")
	}
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dimension mismatch in Dot")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Scale multiplies every element of v by alpha, in place.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: dimension mismatch in AXPY")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

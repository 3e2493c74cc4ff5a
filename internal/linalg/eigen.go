package linalg

import (
	"errors"
	"math"
	"sort"
)

// ErrNoConvergence is returned when the QL iteration of SymEigen fails
// to deflate an eigenvalue within its iteration budget.
var ErrNoConvergence = errors.New("linalg: symmetric eigensolver did not converge")

// maxQLIters bounds the implicit QL sweeps spent on one eigenvalue, as
// in EISPACK's tql2.
const maxQLIters = 30

// SymEigen computes the eigendecomposition A = UΛUᵀ of the symmetric
// matrix a (only its lower triangle is read) by Householder
// tridiagonalization followed by the implicit QL method (EISPACK
// tred2/tql2). It returns the eigenvalues in ascending order and a
// matrix whose row i is the unit eigenvector of values[i], so the rows
// of vectors form Uᵀ. The transformations are applied to rows, which
// keeps every inner loop contiguous in row-major storage. a is not
// modified.
func SymEigen(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: SymEigen of non-square matrix")
	}
	n := a.Rows
	w := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := a.Data[i*n+j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, errors.New("linalg: SymEigen of a non-finite matrix")
			}
			w.Data[i*n+j], w.Data[j*n+i] = v, v
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	if n == 0 {
		return d, w, nil
	}
	tred2(w.Data, n, d, e)
	if err := tql2(w.Data, n, d, e); err != nil {
		return nil, nil, err
	}
	sortEigen(w, d)
	return d, w, nil
}

// tred2 reduces the symmetric matrix in w to tridiagonal form by
// Householder similarity transformations and accumulates them. On
// return d holds the diagonal, e[1:] the subdiagonal, and row j of w
// the j-th column of the orthogonal transformation. The arithmetic is
// EISPACK's tred2 (via JAMA) with every V[r][c] read as w[c][r].
func tred2(w []float64, n int, d, e []float64) {
	at := func(r, c int) *float64 { return &w[c*n+r] } // V[r][c]
	for j := 0; j < n; j++ {
		d[j] = *at(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = *at(i-1, j)
				*at(i, j) = 0
				*at(j, i) = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			for j := 0; j < i; j++ {
				f = d[j]
				*at(j, i) = f
				col := w[j*n : j*n+i] // V[·][j]
				g = e[j] + col[j]*f
				for k := j + 1; k < i; k++ {
					g += col[k] * d[k]
					e[k] += col[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f, g = d[j], e[j]
				col := w[j*n : j*n+i]
				for k := j; k < i; k++ {
					col[k] -= f*e[k] + g*d[k]
				}
				d[j] = *at(i-1, j)
				*at(i, j) = 0
			}
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		*at(n-1, i) = *at(i, i)
		*at(i, i) = 1
		next := w[(i+1)*n : (i+1)*n+i+1] // V[0..i][i+1]
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				col := w[j*n : j*n+i+1]
				var g float64
				for k := 0; k <= i; k++ {
					g += next[k] * col[k]
				}
				for k := 0; k <= i; k++ {
					col[k] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = *at(n-1, j)
		*at(n-1, j) = 0
	}
	*at(n-1, n-1) = 1
	e[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) from tred2
// by the implicit QL method with Wilkinson-style shifts, applying every
// rotation to rows of w. On return d holds the eigenvalues and row j of
// w the eigenvector of d[j] (unsorted).
func tql2(w []float64, n int, d, e []float64) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	var f, tst1 float64
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter == maxQLIters {
					return ErrNoConvergence
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3, c2, s2 = c2, c, s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					lo, hi := w[i*n:(i+1)*n], w[(i+1)*n:(i+2)*n]
					for k := range lo {
						h = hi[k]
						hi[k] = s*lo[k] + c*h
						lo[k] = c*lo[k] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if !(math.Abs(e[l]) > eps*tst1) {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// sortEigen orders the eigenpairs by ascending eigenvalue, keeping each
// eigenvector row with its value.
func sortEigen(w *Matrix, d []float64) {
	n := len(d)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return d[perm[a]] < d[perm[b]] })
	vals := make([]float64, n)
	rows := make([]float64, n*n)
	for i, k := range perm {
		vals[i] = d[k]
		copy(rows[i*n:(i+1)*n], w.Data[k*n:(k+1)*n])
	}
	copy(d, vals)
	w.Data = rows
}

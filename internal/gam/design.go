package gam

import (
	"fmt"
	"math"

	"gef/internal/linalg"
)

// tensorNullPenalty is the relative identity shrinkage added to tensor
// penalty blocks (see penaltyBlock).
const tensorNullPenalty = 0.05

// maxFactorLevels bounds factor-term width: a factor with thousands of
// levels is a mis-specified continuous column, and the resulting
// penalized system would be quadratically large.
const maxFactorLevels = 256

// builtTerm is a TermSpec bound to the training data: basis objects for
// splines/tensors, observed levels for factors, and its column range in
// the design matrix.
type builtTerm struct {
	spec   TermSpec
	bs     *bspline  // Spline and Tensor first axis
	bs2    *bspline  // Tensor second axis
	levels []float64 // Factor
	offset int       // first column (intercept occupies column 0)
	size   int       // number of columns
}

// design holds the built terms plus the cached sparse design rows; row i
// occupies idx/val[rowPtr[i]:rowPtr[i+1]].
type design struct {
	terms  []builtTerm
	p      int // total columns including the intercept
	n      int
	rowPtr []int32
	idx    []int32
	val    []float64
	colSum []float64 // per-column sums, for post-fit centering
}

// buildDesign binds the spec to the data and encodes every row sparsely.
func buildDesign(spec Spec, xs [][]float64) (*design, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("gam: empty design data")
	}
	numFeatures := len(xs[0])
	if err := spec.validate(numFeatures); err != nil {
		return nil, err
	}
	d := &design{n: len(xs)}
	col := 1 // column 0 is the intercept
	nnzPerRow := 1
	for _, ts := range spec.Terms {
		ts = ts.withDefaults()
		bt := builtTerm{spec: ts, offset: col}
		switch ts.Kind {
		case Spline:
			lo, hi := columnRange(xs, ts.Feature)
			// Identifiability cap: a spline with more basis functions
			// than the column has distinct support points is singular
			// along the unsupported directions, which blows up the
			// Bayesian intervals. D* columns are discrete (domain
			// points), so this bites in practice.
			if dc := distinctValues(xs, ts.Feature, ts.NumBasis+1); dc-1 < ts.NumBasis {
				ts.NumBasis = dc - 1
				if ts.NumBasis < degree+1 {
					ts.NumBasis = degree + 1
				}
				bt.spec = ts
			}
			bs, err := newBSpline(ts.NumBasis, lo, hi)
			if err != nil {
				return nil, err
			}
			bt.bs = bs
			bt.size = ts.NumBasis
			nnzPerRow += degree + 1
		case Factor:
			colVals := make([]float64, len(xs))
			for i, row := range xs {
				colVals[i] = row[ts.Feature]
			}
			bt.levels = factorLevels(colVals)
			if len(bt.levels) > maxFactorLevels {
				return nil, fmt.Errorf(
					"gam: factor term on feature %d has %d levels (max %d); the column looks continuous — use a spline term",
					ts.Feature, len(bt.levels), maxFactorLevels)
			}
			bt.size = len(bt.levels)
			nnzPerRow++
		case Tensor:
			lo1, hi1 := columnRange(xs, ts.Feature)
			lo2, hi2 := columnRange(xs, ts.Feature2)
			bs1, err := newBSpline(ts.NumBasis, lo1, hi1)
			if err != nil {
				return nil, err
			}
			bs2, err := newBSpline(ts.NumBasis, lo2, hi2)
			if err != nil {
				return nil, err
			}
			bt.bs = bs1
			bt.bs2 = bs2
			bt.size = ts.NumBasis * ts.NumBasis
			nnzPerRow += (degree + 1) * (degree + 1)
		}
		col += bt.size
		d.terms = append(d.terms, bt)
	}
	d.p = col
	d.colSum = make([]float64, d.p)

	d.rowPtr = make([]int32, d.n+1)
	d.idx = make([]int32, 0, d.n*nnzPerRow)
	d.val = make([]float64, 0, d.n*nnzPerRow)
	idxBuf := make([]int, nnzPerRow)
	valBuf := make([]float64, nnzPerRow)
	for i, row := range xs {
		nnz := d.encodeRow(row, idxBuf, valBuf)
		for k := 0; k < nnz; k++ {
			d.idx = append(d.idx, int32(idxBuf[k]))
			d.val = append(d.val, valBuf[k])
			d.colSum[idxBuf[k]] += valBuf[k]
		}
		d.rowPtr[i+1] = int32(len(d.idx))
	}
	return d, nil
}

// encodeRow writes the sparse design entries of one input row into
// idxBuf/valBuf and returns the entry count. Entries appear in ascending
// column order (intercept first, then terms by offset).
func (d *design) encodeRow(row []float64, idxBuf []int, valBuf []float64) int {
	n := 0
	idxBuf[n], valBuf[n] = 0, 1 // intercept
	n++
	var sv [degree + 1]float64
	var sv2 [degree + 1]float64
	for ti := range d.terms {
		bt := &d.terms[ti]
		switch bt.spec.Kind {
		case Spline:
			first := bt.bs.evaluate(row[bt.spec.Feature], sv[:])
			for k := 0; k <= degree; k++ {
				idxBuf[n], valBuf[n] = bt.offset+first+k, sv[k]
				n++
			}
		case Factor:
			if li := levelIndex(bt.levels, row[bt.spec.Feature]); li >= 0 {
				idxBuf[n], valBuf[n] = bt.offset+li, 1
				n++
			}
		case Tensor:
			f1 := bt.bs.evaluate(row[bt.spec.Feature], sv[:])
			f2 := bt.bs2.evaluate(row[bt.spec.Feature2], sv2[:])
			m2 := bt.spec.NumBasis
			for a := 0; a <= degree; a++ {
				base := bt.offset + (f1+a)*m2 + f2
				for b := 0; b <= degree; b++ {
					idxBuf[n], valBuf[n] = base+b, sv[a]*sv2[b]
					n++
				}
			}
		}
	}
	return n
}

// penaltyMatrix assembles the block-diagonal penalty S over all columns:
// zero for the intercept, second-difference for splines, identity for
// factors and a null-space-shrunk Kronecker-sum difference penalty for
// tensors (see penaltyBlock).
func (d *design) penaltyMatrix() *linalg.Matrix {
	s := linalg.NewMatrix(d.p, d.p)
	for _, bt := range d.terms {
		var block *linalg.Matrix
		switch bt.spec.Kind {
		case Tensor:
			block = penaltyBlock(Tensor, bt.spec.NumBasis)
		default:
			block = penaltyBlock(bt.spec.Kind, bt.size)
		}
		for a := 0; a < bt.size; a++ {
			for b := 0; b < bt.size; b++ {
				if v := block.At(a, b); v != 0 {
					s.Set(bt.offset+a, bt.offset+b, v)
				}
			}
		}
	}
	return s
}

// penaltyBlock builds one term's penalty block: the second-difference
// penalty for splines, the identity for factors, and the
// null-space-shrunk Kronecker-sum penalty for tensors (m is the per-axis
// basis size; the block is m²×m²).
func penaltyBlock(kind TermKind, m int) *linalg.Matrix {
	switch kind {
	case Factor:
		return identityPenalty(m)
	case Tensor:
		block := kroneckerSum(secondDiffPenalty(m), secondDiffPenalty(m))
		// Null-space shrinkage (mgcv's double-penalty idea): the
		// Kronecker-sum penalty leaves bilinear — in particular
		// marginal — functions unpenalized, so a tensor term can
		// silently absorb its features' main effects and render the
		// spline/tensor decomposition unidentified. A small identity
		// component steers shared variance into the dedicated
		// univariate terms.
		for i := 0; i < block.Rows; i++ {
			block.Add(i, i, tensorNullPenalty)
		}
		return block
	default:
		return secondDiffPenalty(m)
	}
}

// row returns the sparse entries of cached row i.
func (d *design) row(i int) (idx []int32, val []float64) {
	lo, hi := d.rowPtr[i], d.rowPtr[i+1]
	return d.idx[lo:hi], d.val[lo:hi]
}

// rowDot computes the inner product of cached row i with the dense
// coefficient vector.
func (d *design) rowDot(i int, beta []float64) float64 {
	idx, val := d.row(i)
	var s float64
	for k, j := range idx {
		s += val[k] * beta[j]
	}
	return s
}

// distinctValues counts the distinct values of column j, stopping early
// once the count reaches cap (the caller only needs to know whether the
// column supports its basis size).
func distinctValues(xs [][]float64, j, cap int) int {
	seen := make(map[float64]struct{}, cap)
	for _, row := range xs {
		seen[row[j]] = struct{}{}
		if len(seen) >= cap {
			break
		}
	}
	return len(seen)
}

func columnRange(xs [][]float64, j int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, row := range xs {
		v := row[j]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

package gam

import (
	"context"
	"fmt"
	"math"

	"gef/internal/obs"
	"gef/internal/stats"
)

// Link returns the fitted model's link function.
func (m *Model) Link() Link { return m.spec.Link }

// Report returns the smoothing-parameter search summary.
func (m *Model) Report() FitReport { return m.report }

// NumCoef returns p, the number of coefficients (intercept included).
func (m *Model) NumCoef() int { return len(m.beta) }

// SizeBytes approximates the model's resident bytes: the p×p Cholesky
// factor behind its credible intervals, plus β, the column and term
// means, and every term's knots and factor levels.
//
//lint:ignore obsspan sums slice lengths over a handful of terms; no work loop worth a span
func (m *Model) SizeBytes() int64 {
	p := int64(len(m.beta))
	words := 2*p + int64(len(m.termMeans))
	if m.chol != nil {
		words += p * p
	}
	for _, bt := range m.design.terms {
		words += int64(len(bt.levels))
		for _, bs := range []*bspline{bt.bs, bt.bs2} {
			if bs != nil {
				words += int64(len(bs.knots))
			}
		}
	}
	return words*8 + 256
}

// NumTerms returns the number of additive terms (excluding the intercept).
func (m *Model) NumTerms() int { return len(m.design.terms) }

// Term returns the spec of term i.
func (m *Model) Term(i int) TermSpec { return m.design.terms[i].spec }

// Intercept returns the centered intercept α (every term has zero mean
// over the training data, so α is the mean linear predictor).
func (m *Model) Intercept() float64 { return m.intercept }

// PredictRaw returns the linear predictor η(x) = α + Σ_j s_j(x).
//
//lint:ignore obsspan per-row hot path; PredictBatch carries the span for batch work
func (m *Model) PredictRaw(x []float64) float64 {
	s := m.intercept
	for ti := range m.design.terms {
		s += m.TermValue(ti, x)
	}
	return s
}

// Predict returns the model prediction on the response scale: η for the
// identity link, σ(η) for the logit link.
func (m *Model) Predict(x []float64) float64 {
	eta := m.PredictRaw(x)
	if m.spec.Link == Logit {
		return sigmoid(eta)
	}
	return eta
}

// PredictBatch applies Predict to every row.
func (m *Model) PredictBatch(xs [][]float64) []float64 {
	_, sp := obs.Start(context.Background(), "gam.predict_batch", obs.Int("rows", len(xs)))
	defer sp.End()
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

// TermValue evaluates the centered contribution s_i(x) of term i at the
// full input row x.
//
//lint:ignore obsspan per-row hot path called once per term per prediction; spans here would dominate the work
func (m *Model) TermValue(ti int, x []float64) float64 {
	bt := &m.design.terms[ti]
	var sv, sv2 [degree + 1]float64
	var s float64
	switch bt.spec.Kind {
	case Spline:
		first := bt.bs.evaluate(x[bt.spec.Feature], sv[:])
		for k := 0; k <= degree; k++ {
			s += sv[k] * m.beta[bt.offset+first+k]
		}
	case Factor:
		if li := nearestLevel(bt.levels, x[bt.spec.Feature]); li >= 0 {
			s = m.beta[bt.offset+li]
		}
	case Tensor:
		f1 := bt.bs.evaluate(x[bt.spec.Feature], sv[:])
		f2 := bt.bs2.evaluate(x[bt.spec.Feature2], sv2[:])
		m2 := bt.spec.NumBasis
		for a := 0; a <= degree; a++ {
			for b := 0; b <= degree; b++ {
				s += sv[a] * sv2[b] * m.beta[bt.offset+(f1+a)*m2+f2+b]
			}
		}
	}
	return s - m.termMeans[ti]
}

// Curve is one term's function evaluated over a grid, with pointwise
// Bayesian credible intervals (Wood 2006): s ± z·SE.
type Curve struct {
	X     []float64 // grid (or factor levels)
	Y     []float64 // centered term values
	SE    []float64 // pointwise standard errors
	Lower []float64 // Y − z·SE
	Upper []float64 // Y + z·SE
}

// TermCurve evaluates univariate term ti over the given grid with
// credible intervals at the given level (e.g. 0.95). For Factor terms
// pass nil to use the observed levels as the grid.
func (m *Model) TermCurve(ti int, grid []float64, level float64) (*Curve, error) {
	bt := &m.design.terms[ti]
	if bt.spec.Kind == Tensor {
		return nil, fmt.Errorf("gam: term %d is a tensor; use TermSurface", ti)
	}
	if grid == nil && bt.spec.Kind == Factor {
		grid = bt.levels
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("gam: empty grid for term %d", ti)
	}
	_, sp := obs.Start(context.Background(), "gam.term_curve",
		obs.Int("term", ti), obs.Int("grid", len(grid)))
	defer sp.End()
	z := stats.NormalQuantile(0.5 + level/2)
	c := &Curve{
		X:     append([]float64(nil), grid...),
		Y:     make([]float64, len(grid)),
		SE:    make([]float64, len(grid)),
		Lower: make([]float64, len(grid)),
		Upper: make([]float64, len(grid)),
	}
	x := make([]float64, maxFeatureIndex(m.spec)+1)
	for gi, v := range grid {
		x[bt.spec.Feature] = v
		c.Y[gi] = m.TermValue(ti, x)
		c.SE[gi] = m.termSE(ti, v, 0)
		c.Lower[gi] = c.Y[gi] - z*c.SE[gi]
		c.Upper[gi] = c.Y[gi] + z*c.SE[gi]
	}
	return c, nil
}

// Surface is a tensor term evaluated over a 2-D grid.
type Surface struct {
	X1, X2 []float64
	Z      [][]float64 // Z[i][j] = s(X1[i], X2[j]), centered
}

// TermSurface evaluates tensor term ti over the cross product of the two
// grids.
func (m *Model) TermSurface(ti int, grid1, grid2 []float64) (*Surface, error) {
	bt := &m.design.terms[ti]
	if bt.spec.Kind != Tensor {
		return nil, fmt.Errorf("gam: term %d is not a tensor", ti)
	}
	if len(grid1) == 0 || len(grid2) == 0 {
		return nil, fmt.Errorf("gam: empty grid for term %d", ti)
	}
	_, sp := obs.Start(context.Background(), "gam.term_surface",
		obs.Int("term", ti), obs.Int("grid1", len(grid1)), obs.Int("grid2", len(grid2)))
	defer sp.End()
	s := &Surface{
		X1: append([]float64(nil), grid1...),
		X2: append([]float64(nil), grid2...),
		Z:  make([][]float64, len(grid1)),
	}
	x := make([]float64, maxFeatureIndex(m.spec)+1)
	for i, v1 := range grid1 {
		s.Z[i] = make([]float64, len(grid2))
		x[bt.spec.Feature] = v1
		for j, v2 := range grid2 {
			x[bt.spec.Feature2] = v2
			s.Z[i][j] = m.TermValue(ti, x)
		}
	}
	return s, nil
}

// termSE computes the Bayesian pointwise standard error of the CENTERED
// term ti at value v (v2 for the second axis of tensors):
// σ·√(cᵀ A⁻¹ c) with c = b(v) − b̄, the term's basis vector minus its
// training column means. Centering is essential: B-spline bases sum to
// one, so the raw basis vector overlaps the intercept-redundant constant
// direction that only the stabilizing ridge pins down; the reported
// quantity is the centered term, whose variance excludes that direction.
func (m *Model) termSE(ti int, v, v2 float64) float64 {
	if m.chol == nil {
		// Model deserialized without its CI factor.
		return 0
	}
	bt := &m.design.terms[ti]
	full := make([]float64, len(m.beta))
	var sv, sv2 [degree + 1]float64
	switch bt.spec.Kind {
	case Spline:
		first := bt.bs.evaluate(v, sv[:])
		for k := 0; k <= degree; k++ {
			full[bt.offset+first+k] = sv[k]
		}
	case Factor:
		if li := nearestLevel(bt.levels, v); li >= 0 {
			full[bt.offset+li] = 1
		}
	case Tensor:
		f1 := bt.bs.evaluate(v, sv[:])
		f2 := bt.bs2.evaluate(v2, sv2[:])
		m2 := bt.spec.NumBasis
		for a := 0; a <= degree; a++ {
			for b := 0; b <= degree; b++ {
				full[bt.offset+(f1+a)*m2+f2+b] = sv[a] * sv2[b]
			}
		}
	}
	for c := 0; c < bt.size; c++ {
		full[bt.offset+c] -= m.colMeans[bt.offset+c]
	}
	u := m.chol.Solve(full)
	var q float64
	for j, bv := range full {
		if bv != 0 {
			q += bv * u[j]
		}
	}
	if q < 0 {
		q = 0
	}
	return math.Sqrt(q * m.report.Scale)
}

// TermRange returns the fitted domain [lo, hi] of a univariate spline
// term, or the min/max level of a factor term.
func (m *Model) TermRange(ti int) (lo, hi float64) {
	bt := &m.design.terms[ti]
	if bt.spec.Kind == Factor {
		return bt.levels[0], bt.levels[len(bt.levels)-1]
	}
	return bt.bs.lo, bt.bs.hi
}

// FactorTermLevels returns the observed levels of a factor term.
func (m *Model) FactorTermLevels(ti int) []float64 {
	return append([]float64(nil), m.design.terms[ti].levels...)
}

// Contribution is one term's share of a single prediction, used for local
// explanations (paper Fig. 11).
type Contribution struct {
	Term  int
	Spec  TermSpec
	Value float64 // centered contribution s_j(x)
}

// Explain decomposes the prediction at x into the intercept plus
// per-term contributions sorted by decreasing |value|.
//
//lint:ignore obsspan per-instance explanation is a handful of TermValue calls; too cheap to span
func (m *Model) Explain(x []float64) (intercept float64, contribs []Contribution) {
	contribs = make([]Contribution, m.NumTerms())
	for ti := range contribs {
		contribs[ti] = Contribution{Term: ti, Spec: m.Term(ti), Value: m.TermValue(ti, x)}
	}
	sortByAbsValue(contribs)
	return m.intercept, contribs
}

func sortByAbsValue(cs []Contribution) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && math.Abs(cs[j].Value) > math.Abs(cs[j-1].Value); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func maxFeatureIndex(s Spec) int {
	m := 0
	for _, t := range s.Terms {
		if t.Feature > m {
			m = t.Feature
		}
		if t.Kind == Tensor && t.Feature2 > m {
			m = t.Feature2
		}
	}
	return m
}

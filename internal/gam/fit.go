package gam

import (
	"context"
	"fmt"
	"math"

	"gef/internal/linalg"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
)

// Metrics instruments (hoisted; see internal/obs).
var (
	mGCVEvals  = obs.Metrics().Counter("gam.gcv_evals")
	mIRLSIters = obs.Metrics().Histogram("gam.pirls_iters")
	mIRLSDelta = obs.Metrics().Histogram("gam.pirls_delta")
	mFits      = obs.Metrics().Counter("gam.fits")
	// mNumWarn counts numerical-conditioning warnings, labeled by kind
	// (negative_rss clamps, nonpositive_gcv_denominator, pirls_diverged).
	// A non-zero series in -metrics-out means some λ evaluations ran on
	// the edge of ill-conditioning even if the chosen fit is healthy;
	// pirls_diverged means a logit fit failed.
	mNumWarn = obs.Metrics().CounterVec("gam.numerical_warnings", "kind")
)

// ridgeScale is the small unconditional ridge added to every penalized
// (non-intercept) diagonal entry, relative to the mean diagonal of XᵀX.
// B-spline bases sum to one, so each spline term's column space contains
// the constant vector already spanned by the intercept; the ridge makes
// the penalized normal equations strictly positive definite without
// visibly perturbing the fit (the redundancy is reassigned to the
// intercept during post-fit centering).
const ridgeScale = 1e-7

// FitReport summarizes the smoothing-parameter search; for the logit
// link it is the final P-IRLS iteration's search.
type FitReport struct {
	Lambda  float64   // chosen smoothing parameter
	GCV     float64   // its GCV score
	EDF     float64   // effective degrees of freedom at the optimum
	Scale   float64   // estimated dispersion (σ² for identity link)
	Lambdas []float64 // searched grid
	GCVs    []float64 // per-grid GCV scores
	IRLS    int       // P-IRLS iterations of the fit (logit only)
	// DevExplained is 1 − RSS/TSS at the optimum, identity link only
	// (0 for logit).
	DevExplained float64
}

// Model is a fitted GAM.
type Model struct {
	spec      Spec
	design    *design // term metadata (cached rows are released after fit)
	beta      []float64
	termMeans []float64 // training-mean of each term's contribution
	colMeans  []float64 // training column means of the design matrix
	intercept float64   // centered intercept α (terms have mean 0)
	chol      *linalg.Cholesky
	report    FitReport
}

// Fit fits the GAM described by spec to (xs, y), choosing the shared
// smoothing parameter λ by GCV over the grid. Identity link: one λ
// search, penalized least squares on sufficient statistics. Logit link:
// P-IRLS that re-runs the same λ search on each iteration's working
// model (performance iteration).
func Fit(spec Spec, xs [][]float64, y []float64, opt Options) (*Model, error) {
	return FitCtx(context.Background(), spec, xs, y, opt)
}

// FitCtx is Fit with context propagation: the fit runs under a gam.fit
// span carrying the design-matrix dimensions. Each λ search runs under
// a gam.lambda_search span and emits one gam.gcv event per grid point
// (λ, GCV, EDF); for the logit link every P-IRLS iteration runs under
// its own gam.pirls span carrying the chosen λ, GCV, EDF and penalized
// deviance.
func FitCtx(ctx context.Context, spec Spec, xs [][]float64, y []float64, opt Options) (*Model, error) {
	return NewDesign(spec, xs, y).FitCtx(ctx, len(spec.Terms), opt)
}

// Design is the design matrix of one spec over one dataset, shared by
// fits of the spec's leading terms. Columns follow term order, so the
// first k terms own the leading columns, and every row's sparse entries
// for them are a prefix of its entries. A fit of k terms therefore
// reads the shared rows — and, for the identity link, the leading
// principal block of the shared XᵀX and Xᵀy — and is bitwise equal to
// a fit of that k-term spec alone: each entry accumulates the same
// products in the same fixed shard order. The rows are encoded by the
// first fit, under its gam.fit span, and XᵀX gains columns only as
// wider fits need them. A Design is not safe for concurrent use.
type Design struct {
	spec Spec
	xs   [][]float64
	y    []float64
	// parent, for a design made by Extend, is the design whose first
	// parentTerms terms lead this one's.
	parent      *Design
	parentTerms int

	d   *design // nil until the first fit builds it
	err error   // the build's error, returned by every fit
	// Identity link: XᵀX and Xᵀy over the leading cols columns, and yᵀy.
	xtx  *linalg.Matrix
	xty  []float64
	yty  float64
	cols int
}

// NewDesign binds spec to (xs, y) for fits of its leading terms; it
// does no work until the first fit.
func NewDesign(spec Spec, xs [][]float64, y []float64) *Design {
	if spec.Link == "" {
		spec.Link = Identity
	}
	return &Design{spec: spec, xs: xs, y: y}
}

// Extend returns the design of dz's first terms terms followed by
// extra, over the same data. Its rows extend dz's — the leading terms
// are encoded once — and, for the identity link, its XᵀX starts from
// the leading block of dz's.
func (dz *Design) Extend(terms int, extra ...TermSpec) *Design {
	spec := dz.spec
	spec.Terms = append(spec.Terms[:terms:terms], extra...)
	return &Design{spec: spec, xs: dz.xs, y: dz.y, parent: dz, parentTerms: terms}
}

// build encodes the design's rows on first use.
func (dz *Design) build() (*design, error) {
	if dz.d != nil || dz.err != nil {
		return dz.d, dz.err
	}
	if dz.parent == nil {
		dz.d, dz.err = buildDesign(dz.spec, dz.xs)
		return dz.d, dz.err
	}
	var base *design
	if base, dz.err = dz.parent.build(); dz.err == nil {
		if dz.err = dz.spec.validate(len(dz.xs[0])); dz.err == nil {
			dz.d, dz.err = extendDesign(base.prefix(dz.parentTerms), dz.spec.Terms[dz.parentTerms:], dz.xs)
		}
	}
	return dz.d, dz.err
}

// FitCtx fits the GAM made of the design spec's first terms terms, as
// gam.FitCtx would fit that spec alone, bitwise.
func (dz *Design) FitCtx(ctx context.Context, terms int, opt Options) (*Model, error) {
	spec := dz.spec
	if terms < 1 || terms > len(spec.Terms) {
		return nil, fmt.Errorf("gam: fit of %d terms from a %d-term spec", terms, len(spec.Terms))
	}
	spec.Terms = spec.Terms[:terms:terms]
	xs, y := dz.xs, dz.y
	opt = opt.withDefaults()
	ctx, sp := obs.Start(ctx, "gam.fit",
		obs.Str("link", string(spec.Link)),
		obs.Int("terms", len(spec.Terms)),
		obs.Int("rows", len(xs)),
		obs.Int("lambda_grid", len(opt.Lambdas)))
	defer sp.End()
	mFits.Inc()
	if len(xs) != len(y) {
		return nil, fmt.Errorf("gam: %d rows but %d targets", len(xs), len(y))
	}
	full, err := dz.build()
	if err != nil {
		return nil, err
	}
	d := full.prefix(terms)
	sp.Set(obs.Int("cols", d.p))
	if d.n <= d.p {
		// ErrNumerical (not a plain error) so the structural degradation
		// ladder in core reacts by shrinking the spline bases.
		return nil, fmt.Errorf("gam: %d rows for %d coefficients; need more data: %w",
			d.n, d.p, robust.ErrNumerical)
	}
	if spec.Link == Logit {
		for _, v := range y {
			if v < 0 || v > 1 {
				return nil, fmt.Errorf("gam: logit link requires targets in [0,1], found %v", v)
			}
		}
	}

	s := d.penaltyMatrix()
	// fitKey identifies this fit invocation to the fault injector
	// (robust.ScopeFit ordinal). FitCtx calls are sequential within a
	// pipeline, so the ordinal — and with it every injection decision —
	// is deterministic.
	fitKey := robust.Ordinal(robust.ScopeFit)
	var m *Model
	if spec.Link == Identity {
		m, err = dz.fitGaussian(ctx, spec, d, s, opt, fitKey)
	} else {
		m, err = fitLogit(ctx, spec, d, s, y, opt, fitKey)
	}
	if err != nil {
		return nil, err
	}
	sp.Set(obs.F64("lambda", m.report.Lambda), obs.F64("gcv", m.report.GCV),
		obs.F64("edf", m.report.EDF))
	m.center(d)
	// Release the view's rows; term metadata stays for prediction.
	d.rowPtr, d.rowEnd, d.idx, d.val = nil, nil, nil, nil
	return m, nil
}

// normalEquations returns XᵀX and Xᵀy over the leading columns of view
// (a prefix of the built design), and yᵀy. Only the columns no earlier
// fit needed are accumulated; an extended design first takes its
// parent's block over the columns they share.
func (dz *Design) normalEquations(ctx context.Context, view *design) (*linalg.Matrix, []float64, float64, error) {
	if dz.xtx == nil && dz.parent != nil {
		xtx, xty, yty, err := dz.parent.normalEquations(ctx, dz.parent.d.prefix(dz.parentTerms))
		if err != nil {
			return nil, nil, 0, err
		}
		dz.xtx, dz.xty, dz.yty, dz.cols = xtx, xty, yty, xtx.Rows
	}
	if dz.cols < view.p {
		_, sp := obs.Start(ctx, "gam.normal_equations", obs.Int("rows", view.n),
			obs.Int("cols", view.p), obs.Int("from", dz.cols), obs.Int("workers", par.Workers()))
		xtx, xty, yty, err := accumulateNormal(ctx, view, nil, dz.y, dz.cols)
		sp.End()
		if err != nil {
			return nil, nil, 0, robust.CtxErr(err)
		}
		for i := 0; i < dz.cols; i++ {
			copy(xtx.Row(i)[:dz.cols], dz.xtx.Row(i)[:dz.cols])
		}
		copy(xty, dz.xty[:dz.cols])
		dz.xtx, dz.xty, dz.yty, dz.cols = xtx, xty, yty, view.p
	}
	return leadingBlock(dz.xtx, view.p), dz.xty[:view.p], dz.yty, nil
}

// normalChunks is the fixed shard count for XᵀWX accumulation. Each
// shard carries a p×p partial matrix, so the count is kept well below
// par.DefaultChunks; it must stay a constant (never derived from the
// worker count) because shard boundaries fix the summation order.
const normalChunks = 8

// normalEq is one shard's partial normal-equation state.
type normalEq struct {
	xtx *linalg.Matrix
	xtz []float64
	ztz float64
}

// accumulateNormal builds XᵀWX (upper triangle) and XᵀWz from the cached
// rows with per-row weights w and responses z (pass w = nil for unit
// weights). Rows are sharded into normalChunks fixed row ranges whose
// partial matrices are summed in shard order, so the result is bitwise
// identical at any worker count. Only entries in a column ≥ from are
// accumulated (the rest stay 0): each entry sums its own products in
// row order, so the ones computed equal a from = 0 pass's bitwise. It
// returns XᵀWX symmetrized, XᵀWz and zᵀWz, or ctx.Err() on
// cancellation.
func accumulateNormal(ctx context.Context, d *design, w, z []float64, from int) (*linalg.Matrix, []float64, float64, error) {
	p := d.p
	acc, err := par.MapReduce(ctx, d.n, normalChunks,
		func(_, lo, hi int) normalEq {
			eq := normalEq{xtx: linalg.NewMatrix(p, p), xtz: make([]float64, p)}
			data := eq.xtx.Data
			for i := lo; i < hi; i++ {
				idx, val := d.row(i)
				wi := 1.0
				if w != nil {
					wi = w[i]
				}
				zi := z[i]
				eq.ztz += wi * zi * zi
				wzi := wi * zi
				// Entries are in ascending column order: those before
				// split only pair with the ones from it on.
				split := 0
				for split < len(idx) && int(idx[split]) < from {
					split++
				}
				for a, ja := range idx {
					va := val[a]
					wva := wi * va
					if a >= split {
						eq.xtz[ja] += wzi * va
					}
					rowBase := int(ja) * p
					for b := max(a, split); b < len(idx); b++ {
						jb := idx[b]
						if jb >= ja {
							data[rowBase+int(jb)] += wva * val[b]
						} else {
							data[int(jb)*p+int(ja)] += wva * val[b]
						}
					}
				}
			}
			return eq
		},
		func(a, b normalEq) normalEq {
			a.xtx.AddScaled(1, b.xtx)
			for j := range a.xtz {
				a.xtz[j] += b.xtz[j]
			}
			a.ztz += b.ztz
			return a
		})
	if err != nil {
		return nil, nil, 0, err
	}
	acc.xtx.SymmetrizeFromUpper()
	return acc.xtx, acc.xtz, acc.ztz, nil
}

// penalizedSystem returns XᵀWX + λS plus the stabilizing ridge on
// non-intercept diagonal entries. extraRidge (relative to the mean
// diagonal, like ridgeScale) is the numerical-recovery ladder's
// escalation knob; 0 for a first attempt.
func penalizedSystem(xtx, s *linalg.Matrix, lambda, extraRidge float64) *linalg.Matrix {
	a := xtx.Clone()
	a.AddScaled(lambda, s)
	r := ridgeOf(xtx, extraRidge)
	for i := 1; i < a.Rows; i++ {
		a.Add(i, i, r)
	}
	return a
}

// ridgeOf is the absolute ridge penalizedSystem adds at the given extra
// relative ridge: (ridgeScale + extraRidge) times the mean diagonal of
// XᵀWX.
func ridgeOf(xtx *linalg.Matrix, extraRidge float64) float64 {
	var meanDiag float64
	for i := 0; i < xtx.Rows; i++ {
		meanDiag += xtx.At(i, i)
	}
	meanDiag /= float64(xtx.Rows)
	if meanDiag <= 0 {
		meanDiag = 1
	}
	return (ridgeScale + extraRidge) * meanDiag
}

// ridgeLadder is the numerical recovery schedule: when the penalized
// system fails to factorize, the assembly is retried with these extra
// relative ridges in order (the first entry, 0, is the ordinary
// attempt). Bounded at 1e-3 — beyond that the system is declared
// numerically hopeless and the λ search fails.
var ridgeLadder = [...]float64{0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}

// factorizeRecover assembles and factorizes XᵀWX + λS, walking the
// ridge ladder on failure. It returns the factor and the extra ridge
// that succeeded (0 = clean first attempt; > 0 increments the
// robust.recoveries counter and emits a gam.recovery event on sp), or
// the last factorization error with the robust.ErrNumerical sentinel
// attached. robust.SiteCholesky injection, keyed by the fit ordinal
// with the attempt's ridge as the level, forces failures here.
func factorizeRecover(sp *obs.Span, xtx, s *linalg.Matrix, lambda float64, fitKey int) (*linalg.Cholesky, float64, error) {
	var lastErr error
	for _, r := range ridgeLadder {
		if robust.Fire(robust.SiteCholesky, fitKey, r) {
			lastErr = linalg.ErrNotPositiveDefinite
			continue
		}
		ch, err := linalg.FactorizeSPD(penalizedSystem(xtx, s, lambda, r))
		if err == nil {
			if r > 0 {
				// The recovery ladder rescued this system; surface the
				// escalation instead of hiding it behind a clean trace.
				robust.Recovered()
				sp.Event("gam.recovery", obs.Str("action", robust.ActionRidgeEscalation),
					obs.F64("lambda", lambda), obs.F64("ridge", r))
			}
			return ch, r, nil
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("factorizing penalized system (λ=%g, ridge ladder exhausted): %w: %w",
		lambda, robust.ErrNumerical, lastErr)
}

// lambdaSearch is the outcome of one GCV search over the λ grid.
type lambdaSearch struct {
	report FitReport // Lambda, GCV, EDF, Scale, Lambdas, GCVs
	beta   []float64
	chol   *linalg.Cholesky
	rss    float64 // (weighted) RSS at the chosen λ, clamped at 0
}

// searchLambda is the λ search for both links: it chooses, by GCV over
// the grid, the penalized (weighted) least-squares fit of z on the
// design from its normal equations xtx = XᵀWX, xtz = XᵀWz and
// ztz = zᵀWz over n rows. The identity link passes unit weights; the
// logit link passes each P-IRLS working model, so λ is re-selected on
// every iteration (performance iteration; Gu 1992, Wood 2006).
//
// The grid costs one decomposition (Demmler–Reinsch; Wood 2017 §6.2):
// with B = XᵀWX + ridge·I′ = LLᵀ and L⁻¹SL⁻ᵀ = UΛUᵀ,
// (B + λS)⁻¹ = L⁻ᵀU·diag(dᵢ)·UᵀL⁻¹ with dᵢ = 1/(1+λΛᵢ). With
// c = UᵀL⁻¹XᵀWz and M = L⁻ᵀU, every λ then costs O(p²):
//
//	β   = M·diag(d)·c
//	EDF = tr((B+λS)⁻¹XᵀWX) = Σdᵢ − ridge·Σdᵢqᵢ, qᵢ = ‖M[1:, i]‖²
//	RSS = zᵀWz − ‖c‖² + Σ(1−dᵢ)²cᵢ² − ridge·‖β[1:]‖²
//
// (I′ is the identity without its intercept entry.) Only the chosen λ
// is factorized again, through the same ridge ladder, so its β and
// Cholesky factor are exactly what a direct solve at that λ gives.
func searchLambda(ctx context.Context, xtx *linalg.Matrix, xtz []float64, ztz float64, n int, s *linalg.Matrix, opt Options, fitKey int) (*lambdaSearch, error) {
	p := xtx.Rows
	_, sp := obs.Start(ctx, "gam.lambda_search", obs.Int("cols", p))
	defer sp.End()
	chB, r, err := factorizeRecover(sp, xtx, s, 0, fitKey)
	if err != nil {
		return nil, err
	}
	ridge := ridgeOf(xtx, r)
	vals, ut, err := linalg.SymEigen(whiten(chB, s))
	if err != nil {
		return nil, fmt.Errorf("gam: decomposing the penalty: %w: %w", robust.ErrNumerical, err)
	}
	// c = Uᵀ(L⁻¹XᵀWz); row i of mt is column i of M = L⁻ᵀU.
	lz := append([]float64(nil), xtz...)
	chB.SolveL(lz)
	c := make([]float64, p)
	r0 := ztz
	for i := range c {
		c[i] = linalg.Dot(ut.Row(i), lz)
		r0 -= c[i] * c[i]
		if vals[i] < 0 {
			vals[i] = 0 // S is PSD: a negative Λᵢ is round-off
		}
	}
	m := ut.T()
	chB.SolveLTMatrix(m)
	mt := m.T()
	q := make([]float64, p)
	for i := range q {
		row := mt.Row(i)[1:]
		q[i] = linalg.Dot(row, row)
	}

	nf := float64(n)
	res := &lambdaSearch{report: FitReport{GCV: math.Inf(1)}}
	best := &res.report
	beta := make([]float64, p)
	for _, lambda := range opt.Lambdas {
		mGCVEvals.Inc()
		var sumD, sumDQ, shrink float64
		for i := range beta {
			beta[i] = 0
		}
		for i, ci := range c {
			di := 1 / (1 + lambda*vals[i])
			sumD += di
			sumDQ += di * q[i]
			shrink += (1 - di) * (1 - di) * ci * ci
			linalg.AXPY(di*ci, mt.Row(i), beta)
		}
		edf := sumD - ridge*sumDQ
		rawRSS := r0 + shrink - ridge*linalg.Dot(beta[1:], beta[1:])
		denom := nf - edf
		if denom <= 0 {
			// A non-positive GCV denominator means the effective degrees
			// of freedom swallowed the sample — severe ill-conditioning,
			// not a normal grid miss.
			mNumWarn.With("nonpositive_gcv_denominator").Inc()
			sp.Event("gam.numerical_warning", obs.Str("kind", "nonpositive_gcv_denominator"),
				obs.F64("lambda", lambda), obs.F64("raw", denom))
			sp.Event("gam.gcv", obs.F64("lambda", lambda), obs.Str("skip", "edf exceeds n"))
			continue
		}
		rss := rawRSS
		if rss < 0 {
			// zᵀWz − ‖c‖² cancels when the fit is near-exact: the clamp
			// keeps GCV defined, but the raw magnitude is the
			// conditioning signal.
			rss = 0
			mNumWarn.With("negative_rss").Inc()
			sp.Event("gam.numerical_warning", obs.Str("kind", "negative_rss"),
				obs.F64("lambda", lambda), obs.F64("raw", rawRSS))
		}
		gcv := nf * rss / (denom * denom)
		sp.Event("gam.gcv", obs.F64("lambda", lambda), obs.F64("gcv", gcv), obs.F64("edf", edf))
		best.Lambdas = append(best.Lambdas, lambda)
		best.GCVs = append(best.GCVs, gcv)
		if gcv < best.GCV {
			best.GCV = gcv
			best.Lambda = lambda
			best.EDF = edf
			best.Scale = rss / denom
			res.rss = rss
		}
	}
	if math.IsInf(best.GCV, 1) {
		return nil, fmt.Errorf("gam: no λ in the grid produced a finite GCV score: %w", robust.ErrNumerical)
	}
	sp.Set(obs.F64("lambda", best.Lambda))
	if res.chol, _, err = factorizeRecover(sp, xtx, s, best.Lambda, fitKey); err != nil {
		return nil, err
	}
	res.beta = res.chol.Solve(xtz)
	return res, nil
}

// whiten returns L⁻¹SL⁻ᵀ for the factor L of ch and symmetric s:
// Y = L⁻¹S, then L⁻¹Yᵀ, transposed. The transpose keeps, as the lower
// triangle SymEigen reads, the entries each of whose rows came early
// in both forward solves; on the gam fixtures that halves the EDF's
// rounding error against exact arithmetic.
func whiten(ch *linalg.Cholesky, s *linalg.Matrix) *linalg.Matrix {
	y := s.Clone()
	ch.SolveLMatrix(y)
	y = y.T()
	ch.SolveLMatrix(y)
	return y.T()
}

func (dz *Design) fitGaussian(ctx context.Context, spec Spec, d *design, s *linalg.Matrix, opt Options, fitKey int) (*Model, error) {
	xtx, xty, yty, err := dz.normalEquations(ctx, d)
	if err != nil {
		return nil, err
	}
	ls, err := searchLambda(ctx, xtx, xty, yty, d.n, s, opt, fitKey)
	if err != nil {
		return nil, err
	}
	// Deviance explained: 1 − RSS/TSS at the optimum.
	n := float64(d.n)
	mean := 0.0
	for _, v := range dz.y {
		mean += v
	}
	mean /= n
	if tss := yty - n*mean*mean; tss > 0 {
		ls.report.DevExplained = 1 - ls.rss/tss
	}
	return &Model{spec: spec, design: d, beta: ls.beta, chol: ls.chol, report: ls.report}, nil
}

// leadingBlock returns the leading k×k principal block of m (m itself
// when k covers it).
func leadingBlock(m *linalg.Matrix, k int) *linalg.Matrix {
	if k == m.Rows {
		return m
	}
	b := linalg.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(b.Row(i), m.Row(i)[:k])
	}
	return b
}

// maxHalvings bounds the P-IRLS step-halving recovery: a step whose
// penalized deviance still increases after this many halvings toward
// the previous iterate is declared divergent and the fit fails.
const maxHalvings = 3

// fitLogit runs P-IRLS by performance iteration: each iteration
// reweights, re-selects λ by GCV on the working model (searchLambda),
// and takes the chosen λ's solution as the candidate step. Step control
// compares the penalized deviance D(β) + λβᵀSβ of the candidate and of
// the previous iterate at the same λ, with a Tol-relative slack for
// round-off; a step that still increases after maxHalvings halvings
// fails the fit with ErrNumerical, which core's structural ladder
// handles.
func fitLogit(ctx context.Context, spec Spec, d *design, s *linalg.Matrix, y []float64, opt Options, fitKey int) (*Model, error) {
	eta := make([]float64, d.n)
	w := make([]float64, d.n)
	z := make([]float64, d.n)
	for i, yi := range y {
		mu := 0.5*yi + 0.25
		eta[i] = math.Log(mu / (1 - mu))
	}
	var ls *lambdaSearch
	var beta []float64       // accepted iterate
	prevDev := math.Inf(1)   // its binomial deviance
	lastDelta := math.Inf(1) // penalized-deviance change of the last step
	iters := 0
	// step runs P-IRLS iteration it under one gam.pirls span and reports
	// whether the penalized deviance converged.
	step := func(it int) (bool, error) {
		ictx, isp := obs.Start(ctx, "gam.pirls", obs.Int("iter", it))
		defer isp.End()
		// Reweighting writes disjoint rows of w/z — parallel over fixed
		// row chunks.
		if err := par.For(ctx, d.n, 0, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				mu := sigmoid(eta[i])
				// Clamp fitted probabilities away from 0/1 so the working
				// weights stay bounded and extreme rows cannot dominate
				// the working RSS.
				if mu < 1e-5 {
					mu = 1e-5
				} else if mu > 1-1e-5 {
					mu = 1 - 1e-5
				}
				wi := mu * (1 - mu)
				w[i] = wi
				z[i] = eta[i] + (y[i]-mu)/wi
			}
		}); err != nil {
			return false, robust.CtxErr(err)
		}
		_, asp := obs.Start(ictx, "gam.normal_equations", obs.Int("rows", d.n),
			obs.Int("cols", d.p), obs.Int("workers", par.Workers()))
		xtx, xtz, ztz, err := accumulateNormal(ictx, d, w, z, 0)
		asp.End()
		if err != nil {
			return false, robust.CtxErr(err)
		}
		if ls, err = searchLambda(ictx, xtx, xtz, ztz, d.n, s, opt, fitKey); err != nil {
			return false, err
		}
		lambda := ls.report.Lambda
		prevP := math.Inf(1) // previous iterate's penalized deviance at λ
		if beta != nil {
			prevP = prevDev + lambda*quadForm(s, beta)
		}
		slack := opt.Tol * (math.Abs(prevP) + 1)
		cand := ls.beta
		// evalP updates eta for the candidate and returns its binomial
		// and penalized deviance; disjoint eta rows, chunk-ordered fold —
		// bitwise-stable. robust.SiteIRLS injection (level = it +
		// 0.25·halvings) replaces the penalized deviance with a spurious
		// increase to force the step-halving path.
		evalP := func(halvings int) (float64, float64, error) {
			dev, err := par.MapReduce(ctx, d.n, 0,
				func(_, lo, hi int) float64 {
					var chunkDev float64
					for i := lo; i < hi; i++ {
						eta[i] = d.rowDot(i, cand)
						chunkDev += binomialDeviance(y[i], sigmoid(eta[i]))
					}
					return chunkDev
				},
				func(a, b float64) float64 { return a + b })
			if err != nil {
				return 0, 0, robust.CtxErr(err)
			}
			pdev := dev + lambda*quadForm(s, cand)
			if beta != nil && robust.Fire(robust.SiteIRLS, fitKey, float64(it)+0.25*float64(halvings)) {
				pdev = math.Abs(prevP)*2 + 1
			}
			return dev, pdev, nil
		}
		dev, pdev, err := evalP(0)
		if err != nil {
			return false, err
		}
		// Divergence recovery: a step that increases the penalized
		// deviance is halved toward the previous iterate (Wood 2006
		// §3.2.2-style step control) before the fit is given up on.
		halvings := 0
		for pdev > prevP+slack && halvings < maxHalvings {
			halvings++
			for j := range cand {
				cand[j] = 0.5 * (cand[j] + beta[j])
			}
			if dev, pdev, err = evalP(halvings); err != nil {
				return false, err
			}
		}
		isp.Set(obs.F64("lambda", lambda), obs.F64("gcv", ls.report.GCV),
			obs.F64("edf", ls.report.EDF), obs.F64("pdev", pdev))
		if beta != nil {
			isp.Set(obs.F64("prev_pdev", prevP))
		}
		if halvings > 0 {
			if pdev > prevP+slack {
				mNumWarn.With("pirls_diverged").Inc()
				isp.Event("gam.numerical_warning", obs.Str("kind", "pirls_diverged"),
					obs.Int("iter", it), obs.F64("raw", pdev), obs.F64("prev_pdev", prevP))
				return false, fmt.Errorf("gam: P-IRLS diverged at iteration %d (λ=%g) after %d step halvings: %w",
					it, lambda, maxHalvings, robust.ErrNumerical)
			}
			robust.Recovered()
			isp.Event("gam.recovery", obs.Str("action", robust.ActionStepHalving),
				obs.Int("iter", it), obs.Int("halvings", halvings))
		}
		beta, prevDev = cand, dev
		lastDelta = math.Abs(prevP - pdev)
		return lastDelta < opt.Tol*(math.Abs(pdev)+1), nil
	}
	for it := 0; it < opt.MaxIRLS; it++ {
		iters = it + 1
		converged, err := step(it)
		if err != nil {
			return nil, err
		}
		if converged {
			break
		}
	}
	mIRLSIters.Observe(float64(iters))
	if !math.IsInf(lastDelta, 0) {
		mIRLSDelta.Observe(lastDelta)
	}
	// The chosen λ, EDF, GCV trace and factor are the final iteration's
	// search. Binomial dispersion is 1 by GLM convention (as in
	// pyGAM/mgcv); the working-model estimate only drives GCV.
	report := ls.report
	report.Scale = 1
	report.IRLS = iters
	return &Model{spec: spec, design: d, beta: beta, chol: ls.chol, report: report}, nil
}

// binomialDeviance is the deviance contribution of one observation,
// generalized to fractional targets (distillation probabilities).
func binomialDeviance(y, mu float64) float64 {
	const eps = 1e-12
	mu = math.Min(math.Max(mu, eps), 1-eps)
	var dev float64
	if y > 0 {
		dev += y * math.Log(y/mu)
	}
	if y < 1 {
		dev += (1 - y) * math.Log((1-y)/(1-mu))
	}
	return 2 * dev
}

// quadForm computes βᵀ M β.
func quadForm(m *linalg.Matrix, beta []float64) float64 {
	return linalg.Dot(beta, linalg.MulVec(m, beta))
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// center converts the fitted (uncentered) parameterization into the
// paper's E[s_j] = 0 form: each term's training-mean contribution moves
// into the intercept.
func (m *Model) center(d *design) {
	m.termMeans = make([]float64, len(d.terms))
	m.intercept = m.beta[0]
	n := float64(d.n)
	m.colMeans = make([]float64, len(d.colSum))
	for c, s := range d.colSum {
		m.colMeans[c] = s / n
	}
	for ti, bt := range d.terms {
		var mean float64
		for c := 0; c < bt.size; c++ {
			mean += m.colMeans[bt.offset+c] * m.beta[bt.offset+c]
		}
		m.termMeans[ti] = mean
		m.intercept += mean
	}
}

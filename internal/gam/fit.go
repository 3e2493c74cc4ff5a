package gam

import (
	"context"
	"fmt"
	"math"
	"sync"

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
// span carrying the design-matrix dimensions. Each λ search emits one
// gam.gcv event per grid point (λ, GCV, EDF); for the logit link every
// P-IRLS iteration runs under its own gam.pirls span carrying the
// chosen λ, GCV, EDF and penalized deviance.
func FitCtx(ctx context.Context, spec Spec, xs [][]float64, y []float64, opt Options) (*Model, error) {
	if spec.Link == "" {
		spec.Link = Identity
	}
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
	d, err := buildDesign(spec, xs)
	if err != nil {
		return nil, err
	}
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
		m, err = fitGaussian(ctx, spec, d, s, y, opt, fitKey)
	} else {
		m, err = fitLogit(ctx, spec, d, s, y, opt, fitKey)
	}
	if err != nil {
		return nil, err
	}
	sp.Set(obs.F64("lambda", m.report.Lambda), obs.F64("gcv", m.report.GCV),
		obs.F64("edf", m.report.EDF))
	m.center(d)
	// Release the cached rows; term metadata stays for prediction.
	d.rowPtr, d.idx, d.val = nil, nil, nil
	return m, nil
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
// identical at any worker count. It returns XᵀWX symmetrized, XᵀWz and
// zᵀWz, or ctx.Err() on cancellation.
func accumulateNormal(ctx context.Context, d *design, w, z []float64) (*linalg.Matrix, []float64, float64, error) {
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
				for a, ja := range idx {
					va := val[a]
					wva := wi * va
					eq.xtz[ja] += wzi * va
					rowBase := int(ja) * p
					for b := a; b < len(idx); b++ {
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

// systemPool recycles the scratch matrices holding XᵀWX + λS between
// λ-grid evaluations (the λ loop used to Clone() the full p×p matrix
// per grid point). FactorizeSPD copies its input into the Cholesky's
// own storage, so a scratch matrix can be reused — or returned to the
// pool — the moment factorization returns.
type systemPool struct {
	pool sync.Pool
	p    int
}

func newSystemPool(p int) *systemPool {
	sp := &systemPool{p: p}
	sp.pool.New = func() any { return linalg.NewMatrix(p, p) }
	return sp
}

func (sp *systemPool) get() *linalg.Matrix  { return sp.pool.Get().(*linalg.Matrix) }
func (sp *systemPool) put(m *linalg.Matrix) { sp.pool.Put(m) }

// penalizedSystemInto overwrites dst with XᵀWX + λS plus the stabilizing
// ridge on non-intercept diagonal entries, and returns dst. Every entry
// of dst is written, so stale scratch contents cannot leak through.
// extraRidge (relative to the mean diagonal, like ridgeScale) is the
// numerical-recovery ladder's escalation knob; 0 for a first attempt.
func penalizedSystemInto(dst, xtx, s *linalg.Matrix, lambda, extraRidge float64) *linalg.Matrix {
	copy(dst.Data, xtx.Data)
	dst.AddScaled(lambda, s)
	var meanDiag float64
	for i := 0; i < xtx.Rows; i++ {
		meanDiag += xtx.At(i, i)
	}
	meanDiag /= float64(xtx.Rows)
	if meanDiag <= 0 {
		meanDiag = 1
	}
	r := (ridgeScale + extraRidge) * meanDiag
	for i := 1; i < dst.Rows; i++ {
		dst.Add(i, i, r)
	}
	return dst
}

// ridgeLadder is the numerical recovery schedule: when the penalized
// system fails to factorize, the assembly is retried with these extra
// relative ridges in order (the first entry, 0, is the ordinary
// attempt). Bounded at 1e-3 — beyond that the system is declared
// numerically hopeless for this λ and the grid moves on.
var ridgeLadder = [...]float64{0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}

// factorizeRecover assembles and factorizes XᵀWX + λS, walking the
// ridge ladder on failure. It returns the factor and the extra ridge
// that succeeded (0 = clean first attempt; > 0 increments the
// robust.recoveries counter), or the last factorization error with the
// robust.ErrNumerical sentinel attached. scratch is overwritten.
// robust.SiteCholesky injection, keyed by the fit ordinal with the
// attempt's ridge as the level, forces failures here.
func factorizeRecover(scratch, xtx, s *linalg.Matrix, lambda float64, fitKey int) (*linalg.Cholesky, float64, error) {
	var lastErr error
	for _, r := range ridgeLadder {
		if robust.Fire(robust.SiteCholesky, fitKey, r) {
			lastErr = linalg.ErrNotPositiveDefinite
			continue
		}
		a := penalizedSystemInto(scratch, xtx, s, lambda, r)
		ch, err := linalg.FactorizeSPD(a)
		if err == nil {
			if r > 0 {
				robust.Recovered()
			}
			return ch, r, nil
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("factorizing penalized system (λ=%g, ridge ladder exhausted): %w: %w",
		lambda, robust.ErrNumerical, lastErr)
}

// gcvResult is the outcome of one λ-grid evaluation, computed in
// parallel and selected over serially in grid order. ridge and rawRSS
// feed the serial reporting pass: events and the numerical-warning
// counter are driven there, in grid order, so traces and metric values
// are deterministic at any worker count.
type gcvResult struct {
	ok     bool
	skip   string  // reason when !ok
	ridge  float64 // extra ridge the recovery ladder needed (0 = clean)
	rawRSS float64 // RSS before the non-negativity clamp
	raw    float64 // raw value behind a skip/warning (denominator, RSS)
	gcv    float64
	edf    float64
	rss    float64
	beta   []float64
	chol   *linalg.Cholesky
}

// lambdaSearch is the outcome of one GCV search over the λ grid.
type lambdaSearch struct {
	report FitReport // Lambda, GCV, EDF, Scale, Lambdas, GCVs
	beta   []float64
	chol   *linalg.Cholesky
	rss    float64 // (weighted) RSS at the chosen λ, clamped at 0
	ztz    float64 // zᵀWz
}

// searchLambda is the λ search for both links: it fits the penalized
// (weighted) least-squares model of z on the design for every λ of the
// grid and keeps the GCV minimizer. w = nil means unit weights (the
// identity link); the logit link passes its P-IRLS working weights and
// responses, so λ is re-selected on each working model (performance
// iteration; Gu 1992, Wood 2006).
func searchLambda(ctx context.Context, d *design, s *linalg.Matrix, w, z []float64, opt Options, fitKey int) (*lambdaSearch, error) {
	_, asp := obs.Start(ctx, "gam.normal_equations", obs.Int("rows", d.n),
		obs.Int("cols", d.p), obs.Int("workers", par.Workers()))
	xtx, xtz, ztz, err := accumulateNormal(ctx, d, w, z)
	asp.End()
	if err != nil {
		return nil, robust.CtxErr(err)
	}
	n := float64(d.n)

	// Every λ on the grid is an independent Cholesky solve against the
	// same sufficient statistics, so the grid is evaluated in parallel
	// (one chunk per λ) into a results slice; span events, the GCV trace
	// and the best-λ selection happen serially afterwards, in grid
	// order, so traces and tie-breaking are deterministic.
	sysPool := newSystemPool(d.p)
	results := make([]gcvResult, len(opt.Lambdas))
	gridErr := par.For(ctx, len(opt.Lambdas), len(opt.Lambdas), func(g, _, _ int) {
		mGCVEvals.Inc()
		a := sysPool.get()
		ch, ridge, ferr := factorizeRecover(a, xtx, s, opt.Lambdas[g], fitKey)
		sysPool.put(a) // FactorizeSPD copied a; safe to recycle now
		if ferr != nil {
			results[g] = gcvResult{skip: "factorization failed"}
			return // skip numerically hopeless λ
		}
		beta := ch.Solve(xtz)
		edf := ch.TraceSolve(xtx)
		rawRSS := ztz - 2*linalg.Dot(beta, xtz) + quadForm(xtx, beta)
		rss := rawRSS
		if rss < 0 {
			rss = 0
		}
		denom := n - edf
		if denom <= 0 {
			results[g] = gcvResult{skip: "edf exceeds n", raw: denom, ridge: ridge}
			return
		}
		results[g] = gcvResult{
			ok:     true,
			ridge:  ridge,
			rawRSS: rawRSS,
			gcv:    n * rss / (denom * denom),
			edf:    edf,
			rss:    rss,
			beta:   beta,
			chol:   ch,
		}
	})
	if gridErr != nil {
		return nil, robust.CtxErr(gridErr)
	}

	sp := obs.FromContext(ctx)
	res := &lambdaSearch{report: FitReport{GCV: math.Inf(1)}, ztz: ztz}
	best := &res.report
	for g, lambda := range opt.Lambdas {
		r := results[g]
		if r.ridge > 0 {
			// The recovery ladder rescued this λ; surface the escalation
			// instead of hiding it behind a clean GCV trace.
			sp.Event("gam.recovery", obs.Str("action", robust.ActionRidgeEscalation),
				obs.F64("lambda", lambda), obs.F64("ridge", r.ridge))
		}
		if !r.ok {
			if r.skip == "edf exceeds n" {
				// A non-positive GCV denominator means the effective
				// degrees of freedom swallowed the sample — severe
				// ill-conditioning, not a normal grid miss.
				mNumWarn.With("nonpositive_gcv_denominator").Inc()
				sp.Event("gam.numerical_warning", obs.Str("kind", "nonpositive_gcv_denominator"),
					obs.F64("lambda", lambda), obs.F64("raw", r.raw))
			}
			sp.Event("gam.gcv", obs.F64("lambda", lambda), obs.Str("skip", r.skip))
			continue
		}
		if r.rawRSS < 0 {
			// A negative RSS from the sufficient-statistics identity is
			// cancellation error: the clamp keeps GCV defined, but the
			// raw magnitude is the conditioning signal.
			mNumWarn.With("negative_rss").Inc()
			sp.Event("gam.numerical_warning", obs.Str("kind", "negative_rss"),
				obs.F64("lambda", lambda), obs.F64("raw", r.rawRSS))
		}
		sp.Event("gam.gcv", obs.F64("lambda", lambda), obs.F64("gcv", r.gcv), obs.F64("edf", r.edf))
		best.Lambdas = append(best.Lambdas, lambda)
		best.GCVs = append(best.GCVs, r.gcv)
		if r.gcv < best.GCV {
			best.GCV = r.gcv
			best.Lambda = lambda
			best.EDF = r.edf
			best.Scale = r.rss / (n - r.edf)
			res.beta = r.beta
			res.chol = r.chol
			res.rss = r.rss
		}
	}
	if res.beta == nil {
		return nil, fmt.Errorf("gam: no λ in the grid produced a solvable system: %w", robust.ErrNumerical)
	}
	return res, nil
}

func fitGaussian(ctx context.Context, spec Spec, d *design, s *linalg.Matrix, y []float64, opt Options, fitKey int) (*Model, error) {
	ls, err := searchLambda(ctx, d, s, nil, y, opt, fitKey)
	if err != nil {
		return nil, err
	}
	// Deviance explained: 1 − RSS/TSS at the optimum.
	n := float64(d.n)
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= n
	if tss := ls.ztz - n*mean*mean; tss > 0 {
		ls.report.DevExplained = 1 - ls.rss/tss
	}
	return &Model{spec: spec, design: d, beta: ls.beta, chol: ls.chol, report: ls.report}, nil
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
		var err error
		if ls, err = searchLambda(ictx, d, s, w, z, opt, fitKey); err != nil {
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

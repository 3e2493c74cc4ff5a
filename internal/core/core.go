// Package core orchestrates the complete GEF pipeline of the paper
// (Fig. 1): univariate feature selection from the forest's gains (§3.2),
// sampling-domain construction and synthetic-dataset generation from the
// forest's thresholds (§3.3), interaction selection (§3.4), and fitting
// of the explanation GAM (§3.5). No training data is consulted at any
// point — the forest is the only input.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/obs"
	"gef/internal/robust"
	"gef/internal/rules"
	"gef/internal/sampling"
	"gef/internal/smoother"
	"gef/internal/stats"
)

// Config controls the GEF pipeline. The analyst-facing knobs of the paper
// are NumUnivariate (|F′|), NumInteractions (|F″|), the sampling strategy
// and its K; everything else has paper defaults.
type Config struct {
	// Family selects the explainer family the fit stage produces
	// (default FamilyGAM, the paper's explainer). See Families() for the
	// registered names; every family shares the upstream pipeline
	// stages, so switching families on a warm engine reuses the cached
	// forest statistics, domains and D* sample.
	Family string
	// NumUnivariate is |F′|, the number of univariate components.
	NumUnivariate int
	// NumInteractions is |F″|, the number of bi-variate components
	// (0 disables interaction terms).
	NumInteractions int
	// Sampling selects the D* sampling strategy (default Equi-Size with
	// K = 64, the family the paper finds best after tuning).
	Sampling sampling.Config
	// InteractionStrategy ranks candidate pairs (default Gain-Path, the
	// paper's recommended cost/accuracy tradeoff).
	InteractionStrategy featsel.InteractionStrategy
	// NumSamples is N = |D*| (default 100,000, the paper's setting).
	NumSamples int
	// TestFraction of D* is held out to measure fidelity (default 0.2,
	// matching the paper's evaluation protocol).
	TestFraction float64
	// CategoricalThreshold is the paper's L: a feature with fewer than L
	// distinct thresholds is modelled with a factor term (default 10).
	CategoricalThreshold int
	// SplineBasis / TensorBasis are the per-axis basis sizes (defaults
	// 12 and 6).
	SplineBasis int
	TensorBasis int
	// GAM passes fitting options through (λ grid, IRLS limits); read by
	// the gam family only.
	GAM gam.Options
	// Rules configures the rule family (read when Family is
	// FamilyRules, or when the fallback ladder lands there).
	Rules rules.Config
	// Smoother configures the kernel-smoother family (read when Family
	// is FamilySmoother).
	Smoother smoother.Config
	// HStatSample is the D* subsample size used when
	// InteractionStrategy is H-Stat (default 150; the statistic costs
	// O(n²) forest evaluations per pair).
	HStatSample int
	// ForcedPairs bypasses interaction selection with an explicit F″
	// (the paper's Table 2 fixes the interactions to the injected truth).
	// When non-empty, NumInteractions and InteractionStrategy are ignored.
	ForcedPairs [][2]int
	// Seed drives all sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Family == "" {
		c.Family = FamilyGAM
	}
	c.Rules = c.Rules.WithDefaults()
	c.Smoother = c.Smoother.WithDefaults()
	if c.NumUnivariate == 0 {
		c.NumUnivariate = 5
	}
	if c.Sampling.Strategy == "" {
		c.Sampling.Strategy = sampling.EquiSize
		if c.Sampling.K == 0 {
			c.Sampling.K = 64
		}
	}
	if c.InteractionStrategy == "" {
		c.InteractionStrategy = featsel.GainPath
	}
	if c.NumSamples == 0 {
		c.NumSamples = 100000
	}
	if c.TestFraction == 0 {
		c.TestFraction = 0.2
	}
	if c.CategoricalThreshold == 0 {
		c.CategoricalThreshold = 10
	}
	if c.SplineBasis == 0 {
		c.SplineBasis = 12
	}
	if c.TensorBasis == 0 {
		c.TensorBasis = 6
	}
	if c.HStatSample == 0 {
		c.HStatSample = 150
	}
	return c
}

// minBasis is the smallest usable B-spline basis (degree+1 for the cubic
// splines gam builds) and the floor of the degradation ladder.
const minBasis = 4

// Validate rejects configurations with NaN, negative or otherwise
// out-of-domain knobs. Every violation wraps robust.ErrConfig, so callers
// can distinguish "bad configuration" from pipeline failures with
// errors.Is. Explain validates the defaulted configuration automatically;
// call Validate directly to pre-check analyst input.
//
//lint:ignore obsspan pure field checks over a handful of knobs; no work loop worth a span
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("gef: "+format+": %w", append(args, robust.ErrConfig)...)
	}
	if c.Family != "" {
		if _, err := surrogateFor(c.Family); err != nil {
			return err
		}
	}
	if t := c.Rules.Tolerance; math.IsNaN(t) || t < 0 {
		return fail("Rules.Tolerance = %v is not a non-negative number", t)
	}
	if c.Rules.SummarySample < 0 {
		return fail("Rules.SummarySample = %d is negative", c.Rules.SummarySample)
	}
	if c.Smoother.DictSize < 0 {
		return fail("Smoother.DictSize = %d is negative", c.Smoother.DictSize)
	}
	if c.Smoother.ProximitySample < 0 {
		return fail("Smoother.ProximitySample = %d is negative", c.Smoother.ProximitySample)
	}
	if t := c.Smoother.ProximityThreshold; math.IsNaN(t) || t < 0 || t > 1 {
		return fail("Smoother.ProximityThreshold = %v is outside [0, 1]", t)
	}
	if s := c.Smoother.BandwidthScale; math.IsNaN(s) || s < 0 {
		return fail("Smoother.BandwidthScale = %v is not a non-negative number", s)
	}
	if c.NumUnivariate < 0 {
		return fail("NumUnivariate = %d is negative", c.NumUnivariate)
	}
	if c.NumInteractions < 0 {
		return fail("NumInteractions = %d is negative", c.NumInteractions)
	}
	if c.NumSamples < 0 {
		return fail("NumSamples = %d is negative", c.NumSamples)
	}
	if math.IsNaN(c.TestFraction) || c.TestFraction < 0 || c.TestFraction >= 1 {
		return fail("TestFraction = %v is outside [0, 1)", c.TestFraction)
	}
	if c.CategoricalThreshold < 0 {
		return fail("CategoricalThreshold = %d is negative", c.CategoricalThreshold)
	}
	if c.SplineBasis != 0 && c.SplineBasis < minBasis {
		return fail("SplineBasis = %d; cubic B-splines need at least %d", c.SplineBasis, minBasis)
	}
	if c.TensorBasis != 0 && c.TensorBasis < minBasis {
		return fail("TensorBasis = %d; cubic B-splines need at least %d", c.TensorBasis, minBasis)
	}
	if c.HStatSample < 0 {
		return fail("HStatSample = %d is negative", c.HStatSample)
	}
	if c.Sampling.K < 0 {
		return fail("Sampling.K = %d is negative", c.Sampling.K)
	}
	if e := c.Sampling.Epsilon; math.IsNaN(e) || e < 0 {
		return fail("Sampling.Epsilon = %v is not a non-negative number", e)
	}
	for i, l := range c.GAM.Lambdas {
		if math.IsNaN(l) || l < 0 {
			return fail("GAM.Lambdas[%d] = %v is not a non-negative number", i, l)
		}
	}
	if t := c.GAM.Tol; math.IsNaN(t) || t < 0 {
		return fail("GAM.Tol = %v is not a non-negative number", t)
	}
	if c.GAM.MaxIRLS < 0 {
		return fail("GAM.MaxIRLS = %d is negative", c.GAM.MaxIRLS)
	}
	return nil
}

// Fidelity reports how faithfully the GAM mimics the forest on the
// held-out fraction of D*.
type Fidelity struct {
	RMSE float64 // RMSE between GAM and forest predictions
	R2   float64 // R² of GAM predictions against forest predictions
}

// Explanation is the result of running GEF on a forest.
type Explanation struct {
	// Family names the explainer family that actually produced the
	// model — normally Config.Family, but the cross-family fallback
	// ladder can land on a simpler family (see Degradations).
	Family string
	// Surrogate is the fitted explainer of whatever family. For the gam
	// family it wraps the same model Model exposes.
	Surrogate SurrogateModel
	// Model is the fitted GAM surrogate Γ when Family is FamilyGAM, nil
	// for every other family (their models live behind Surrogate).
	Model *gam.Model
	// Features is F′ in decreasing importance order.
	Features []int
	// Pairs is F″ in decreasing interaction-score order (empty when
	// NumInteractions is 0).
	Pairs []featsel.Pair
	// Domains are the sampling domains D_i used to build D*.
	Domains *sampling.Domains
	// Train and Test are the D* splits (Test drove the Fidelity numbers).
	Train, Test *dataset.Dataset
	// Fidelity is measured on Test against the forest's own predictions.
	Fidelity Fidelity
	// Forest is the explained model.
	Forest *forest.Forest
	// Config echoes the (defaulted) configuration used.
	Config Config
	// Degradations lists every structural simplification the pipeline
	// performed to survive degenerate inputs or numerical failures
	// (empty for a clean run). A non-empty list means the explanation is
	// valid but simpler than configured — inspect it before trusting
	// per-term attributions.
	Degradations []robust.Degradation
}

// Explain runs the full GEF pipeline on the forest through the shared
// process-wide engine (see Engine for the caching semantics).
func Explain(f *forest.Forest, cfg Config) (*Explanation, error) {
	return shared.ExplainCtx(context.Background(), f, cfg)
}

// ExplainCtx is Explain with context propagation: each pipeline stage
// opens an obs span under the caller's span, so traces show feature
// selection, domain construction, D* sampling/labelling, interaction
// ranking and the GAM fit (with per-λ children) individually. Runs on
// the shared process-wide engine; use NewEngine for an isolated cache.
func ExplainCtx(ctx context.Context, f *forest.Forest, cfg Config) (*Explanation, error) {
	return shared.ExplainCtx(ctx, f, cfg)
}

// ExplainCtx runs the staged pipeline through e's artifact cache. Any
// error leaving the pipeline is also stored in the flight recorder, so a
// post-hoc dump shows the failing run's last spans next to the error.
func (e *Engine) ExplainCtx(ctx context.Context, f *forest.Forest, cfg Config) (*Explanation, error) {
	ex, err := e.explainCtx(ctx, f, cfg)
	if err != nil {
		obs.RecordError("core.explain", err)
	}
	return ex, err
}

func (e *Engine) explainCtx(ctx context.Context, f *forest.Forest, cfg Config) (*Explanation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The pipeline owns a cancellable child context so the fault injector
	// can exercise mid-stage cancellation (robust.SiteCancel) exactly the
	// way an external caller would.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx, root := obs.Start(ctx, "gef.explain",
		obs.Int("num_univariate", cfg.NumUnivariate),
		obs.Int("num_interactions", cfg.NumInteractions),
		obs.Int("num_samples", cfg.NumSamples),
		obs.Str("sampling", string(cfg.Sampling.Strategy)))
	defer root.End()
	// checkpoint guards each stage boundary: injected cancellation fires
	// here, and an already-dead context stops the pipeline with the typed
	// taxonomy error instead of burning the remaining stages.
	checkpoint := func(stage int) error {
		if robust.Fire(robust.SiteCancel, stage, 0) {
			cancel()
		}
		return robust.CtxErr(ctx.Err())
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("gef: invalid forest: %w", err)
	}
	p := &pipeline{eng: e, f: f, fp: f.Fingerprint(), cfg: cfg}

	// §3.2 — univariate selection F′ by accumulated gain.
	if err := checkpoint(0); err != nil {
		return nil, err
	}
	if err := p.selectFeatures(ctx, cfg.NumUnivariate); err != nil {
		return nil, err
	}
	if len(p.features) == 0 {
		return nil, fmt.Errorf("gef: forest has no split nodes to explain: %w", robust.ErrDegenerate)
	}

	// §3.3 — sampling domains and synthetic dataset D*. Features the GAM
	// will model as factors (|V_i| < L) always use All-Thresholds
	// domains: within a threshold cell the forest is constant, so extra
	// domain points only inflate the factor level count. The domains
	// stage owns the drop-feature ladder for collapsed domains.
	if err := checkpoint(1); err != nil {
		return nil, err
	}
	if err := p.buildDomains(ctx); err != nil {
		return nil, err
	}
	if err := checkpoint(2); err != nil {
		return nil, err
	}
	if err := p.buildSample(ctx); err != nil {
		return nil, err
	}

	// §3.4 — interaction selection F″ (independent of D*, except H-Stat
	// which needs a data sample).
	if err := checkpoint(3); err != nil {
		return nil, err
	}
	var pairs []featsel.Pair
	if len(cfg.ForcedPairs) > 0 {
		for _, fp := range cfg.ForcedPairs {
			a, b := fp[0], fp[1]
			if a > b {
				a, b = b, a
			}
			if a == b || a < 0 || b >= f.NumFeatures {
				return nil, fmt.Errorf("gef: invalid forced pair %v: %w", fp, robust.ErrConfig)
			}
			pairs = append(pairs, featsel.Pair{I: a, J: b})
		}
	} else if cfg.NumInteractions > 0 && len(p.features) >= 2 {
		ranking, err := p.rankInteractions(ctx)
		if err != nil {
			return nil, err
		}
		k := cfg.NumInteractions
		if k > len(ranking) {
			k = len(ranking)
		}
		pairs = append([]featsel.Pair(nil), ranking[:k]...)
	}

	// §3.5 — fit the selected explainer family on D*, degrading within
	// the family (e.g. the GAM structural ladder) and then across
	// families (fallback ladder) when numerical recovery is exhausted.
	if err := checkpoint(4); err != nil {
		return nil, err
	}
	fit, err := p.fitSurrogate(ctx, pairs)
	if err != nil {
		return nil, fmt.Errorf("gef: fitting the %s explanation: %w", cfg.Family, err)
	}

	ex := &Explanation{
		Family:       fit.model.Family(),
		Surrogate:    fit.model,
		Features:     p.features,
		Pairs:        pairs,
		Domains:      p.domains,
		Train:        p.train,
		Test:         p.test,
		Fidelity:     fit.fidelity,
		Forest:       f,
		Config:       cfg,
		Degradations: p.degr,
	}
	if gm, ok := fit.model.(*gamModel); ok {
		ex.Model = gm.m
	}
	root.Set(obs.F64("rmse", ex.Fidelity.RMSE), obs.F64("r2", ex.Fidelity.R2))
	return ex, nil
}

// fitSurrogate resolves Config.Family against the surrogate registry
// and runs the fit stage, walking the cross-family fallback ladder when
// a family fails numerically even after its own in-family recovery.
// Each fallback rung is recorded in the pipeline's degradation list, so
// the caller always knows which family actually produced the model.
func (p *pipeline) fitSurrogate(ctx context.Context, pairs []featsel.Pair) (*fitArtifact, error) {
	fam := p.cfg.Family
	for {
		sur, err := surrogateFor(fam)
		if err != nil {
			return nil, err
		}
		fit, err := p.runFit(ctx, sur, pairs)
		if err == nil {
			return fit, nil
		}
		next, ok := familyFallback[fam]
		if !ok || !errors.Is(err, robust.ErrNumerical) {
			return nil, err
		}
		robust.Record(ctx, &p.degr, robust.Degradation{
			Stage:  "fit",
			Action: robust.ActionFallbackFamily,
			Reason: err.Error(),
			Detail: fmt.Sprintf("family %s → %s", fam, next),
		})
		fam = next
	}
}

// runFit runs one family's fit through the engine. The fitted model and
// its fidelity on the D* test split are one fit-stage artifact, keyed
// under the sample key (which pins the split), the family, the pair list
// and the family's Key fragment — so a hit replays the same model, the
// same fidelity and the same degradations the cold fit produced.
func (p *pipeline) runFit(ctx context.Context, sur Surrogate, pairs []featsel.Pair) (*fitArtifact, error) {
	key := "ft|" + p.smpKey + "|fam=" + sur.Name() + "|p=" + pairsKey(pairs) + "|" + sur.Key(p.cfg)
	v, err := p.eng.runStage(ctx, p, stage{
		name: "fit",
		key:  func(*pipeline) string { return key },
		run: func(ctx context.Context, p *pipeline) (any, error) {
			model, degr, ferr := sur.Fit(ctx, &FitInput{
				Forest:     p.f,
				Config:     p.cfg,
				Features:   p.features,
				Pairs:      pairs,
				Thresholds: p.stats.thresholds,
				Domains:    p.domains,
				Train:      p.train,
				Test:       p.test,
			})
			if ferr != nil {
				// In-family degradations that preceded the failure still
				// belong to the pipeline record (the ladder may fall back
				// to another family and succeed).
				p.degr = append(p.degr, degr...)
				return nil, ferr
			}
			fid, ferr := fidelity(ctx, model, p.test)
			if ferr != nil {
				return nil, ferr
			}
			return &fitArtifact{model: model, fidelity: fid, degr: degr}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	art := v.(*fitArtifact)
	// Replay the fit's degradations on cache hits too (metrics were
	// already counted when the artifact was computed — mirror the
	// domains stage and only extend the pipeline record here).
	p.degr = append(p.degr, art.degr...)
	return art, nil
}

// fidelity measures model against the forest's own predictions on the
// held-out D* split.
func fidelity(ctx context.Context, model SurrogateModel, test *dataset.Dataset) (Fidelity, error) {
	ctx, sp := obs.Start(ctx, "gef.fidelity", obs.Int("test_rows", len(test.X)),
		obs.Str("family", model.Family()))
	defer sp.End()
	pred, err := model.PredictBatch(ctx, test.X)
	if err != nil {
		return Fidelity{}, err
	}
	fid := Fidelity{RMSE: stats.RMSE(pred, test.Y), R2: stats.R2(pred, test.Y)}
	sp.Set(obs.F64("rmse", fid.RMSE), obs.F64("r2", fid.R2))
	return fid, nil
}

// fitLadder fits spec, walking the structural degradation ladder when
// the fit fails numerically even after gam's in-stage recovery (ridge
// escalation, step-halving): drop tensor terms → halve spline bases →
// minimal-basis main-effects fit. Each rung is recorded in degradations;
// deadline/cancellation and degenerate-input errors abort immediately —
// a simpler model cannot repair those classes.
func fitLadder(ctx context.Context, spec gam.Spec, train *dataset.Dataset, opt gam.Options, degradations *[]robust.Degradation) (*gam.Model, error) {
	for {
		model, err := gam.FitCtx(ctx, spec, train.X, train.Y, opt)
		if err == nil {
			return model, nil
		}
		if !errors.Is(err, robust.ErrNumerical) {
			return nil, robust.CtxErr(err)
		}
		next, d, ok := degrade(spec)
		if !ok {
			return nil, fmt.Errorf("degradation ladder exhausted: %w", err)
		}
		d.Reason = err.Error()
		robust.Record(ctx, degradations, d)
		spec = next
	}
}

// degrade returns the next-simpler GAM structure, or ok=false when spec
// is already minimal. Factor terms are never touched: their size is
// dictated by the forest's threshold count, not by a knob.
func degrade(spec gam.Spec) (next gam.Spec, d robust.Degradation, ok bool) {
	// Rung 1: drop the tensor interaction terms.
	nTensor := 0
	for _, t := range spec.Terms {
		if t.Kind == gam.Tensor {
			nTensor++
		}
	}
	if nTensor > 0 {
		out := gam.Spec{Link: spec.Link}
		for _, t := range spec.Terms {
			if t.Kind != gam.Tensor {
				out.Terms = append(out.Terms, t)
			}
		}
		return out, robust.Degradation{
			Stage:  "gam",
			Action: robust.ActionDropTensors,
			Detail: fmt.Sprintf("%d tensor terms removed", nTensor),
		}, true
	}
	// Rung 2: halve the spline bases (floored at minBasis).
	maxB := 0
	for _, t := range spec.Terms {
		if t.Kind == gam.Spline && t.NumBasis > maxB {
			maxB = t.NumBasis
		}
	}
	clone := func() gam.Spec {
		return gam.Spec{Link: spec.Link, Terms: append([]gam.TermSpec(nil), spec.Terms...)}
	}
	if maxB > 2*minBasis {
		out := clone()
		for i, t := range out.Terms {
			if t.Kind == gam.Spline && t.NumBasis > minBasis {
				if t.NumBasis /= 2; t.NumBasis < minBasis {
					t.NumBasis = minBasis
				}
				out.Terms[i].NumBasis = t.NumBasis
			}
		}
		return out, robust.Degradation{
			Stage:  "gam",
			Action: robust.ActionShrinkBases,
			Detail: fmt.Sprintf("spline bases halved (max %d → %d)", maxB, maxB/2),
		}, true
	}
	// Rung 3: the minimal main-effects fit — every spline at the smallest
	// usable basis, no interactions (already gone after rung 1).
	if maxB > minBasis {
		out := clone()
		for i, t := range out.Terms {
			if t.Kind == gam.Spline {
				out.Terms[i].NumBasis = minBasis
			}
		}
		return out, robust.Degradation{
			Stage:  "gam",
			Action: robust.ActionMainEffects,
			Detail: fmt.Sprintf("minimal main-effects fit (basis %d)", minBasis),
		}, true
	}
	return spec, robust.Degradation{}, false
}

// buildSpec assembles the GAM structure: a spline term per selected
// feature — or a factor term when the forest's threshold count marks the
// feature as categorical (paper heuristic |V_i| < L) — plus a tensor term
// per selected pair. thresholds is the stats stage's cached
// forest.ThresholdsByFeature map (read only).
func buildSpec(f *forest.Forest, thresholds map[int][]float64, features []int, pairs []featsel.Pair, cfg Config) (gam.Spec, error) {
	spec := gam.Spec{Link: gam.Identity}
	if f.Objective == forest.BinaryLogistic {
		spec.Link = gam.Logit
	}
	for _, j := range features {
		if isCategorical(thresholds[j], cfg.CategoricalThreshold) {
			spec.Terms = append(spec.Terms, gam.TermSpec{Kind: gam.Factor, Feature: j})
		} else {
			spec.Terms = append(spec.Terms, gam.TermSpec{Kind: gam.Spline, Feature: j, NumBasis: cfg.SplineBasis})
		}
	}
	for _, p := range pairs {
		spec.Terms = append(spec.Terms, gam.TermSpec{
			Kind: gam.Tensor, Feature: p.I, Feature2: p.J, NumBasis: cfg.TensorBasis,
		})
	}
	return spec, nil
}

// isCategorical applies the paper's heuristic: fewer than L distinct
// thresholds marks a feature as categorical.
func isCategorical(thresholds []float64, l int) bool {
	distinct := 0
	for i, v := range thresholds {
		//lint:ignore floatcmp distinct-count over sorted thresholds; duplicates are bit-identical copies of the same split value
		if i == 0 || v != thresholds[i-1] {
			distinct++
		}
	}
	return distinct < l
}

// EvaluateOn measures fidelity on an external dataset (e.g. the original
// test split when it is available, as in the paper's Table 2): the R² of
// the GAM and of the forest against the dataset's labels, and the R² of
// the GAM against the forest's predictions.
func (e *Explanation) EvaluateOn(ds *dataset.Dataset) Table2Row {
	//lint:ignore errdrop background context cannot be canceled
	row, _ := e.EvaluateOnCtx(context.Background(), ds)
	return row
}

// EvaluateOnCtx is EvaluateOn with the caller's context threaded into
// the forest's batched prediction kernels, so deadlines cancel the
// traversal itself. Returns ctx.Err() if canceled.
func (e *Explanation) EvaluateOnCtx(ctx context.Context, ds *dataset.Dataset) (Table2Row, error) {
	forestPred, err := e.Forest.PredictBatchCtx(ctx, ds.X)
	if err != nil {
		return Table2Row{}, robust.CtxErr(err)
	}
	var gamPred []float64
	if e.Model != nil {
		gamPred = e.Model.PredictBatch(ds.X)
	} else {
		gamPred, err = e.Surrogate.PredictBatch(ctx, ds.X)
		if err != nil {
			return Table2Row{}, robust.CtxErr(err)
		}
	}
	return Table2Row{
		ForestVsLabels: stats.R2(forestPred, ds.Y),
		GamVsForest:    stats.R2(gamPred, forestPred),
		GamVsLabels:    stats.R2(gamPred, ds.Y),
	}, nil
}

// Table2Row holds the three R² numbers of the paper's Table 2 for one
// dataset.
type Table2Row struct {
	ForestVsLabels float64 // R² of T against y
	GamVsForest    float64 // R² of Γ against T(x)
	GamVsLabels    float64 // R² of Γ against y
}

// LocalExplanation describes one prediction (paper Fig. 11): the
// intercept, per-term contributions sorted by magnitude, and the forest
// and surrogate predictions for cross-checking. Intercept and
// Contributions are populated by the gam family only — other families
// report the surrogate prediction without an additive decomposition
// (the rule family's per-instance rules live on its concrete model).
type LocalExplanation struct {
	Intercept     float64
	Contributions []gam.Contribution
	// GamPrediction is the surrogate's prediction for x, whatever the
	// family (the name predates pluggable families and is kept for
	// compatibility).
	GamPrediction float64
	ForestOutput  float64
}

// ExplainInstance produces the local explanation of x.
func (e *Explanation) ExplainInstance(x []float64) LocalExplanation {
	le := LocalExplanation{}
	if e.Forest != nil {
		le.ForestOutput = e.Forest.Predict(x)
	}
	if e.Model != nil {
		le.Intercept, le.Contributions = e.Model.Explain(x)
		le.GamPrediction = e.Model.Predict(x)
	} else if e.Surrogate != nil {
		le.GamPrediction = e.Surrogate.Predict(x)
	}
	return le
}

package core

import (
	"context"
	"errors"
	"fmt"

	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/obs"
	"gef/internal/robust"
	"gef/internal/stats"
)

// AutoConfig controls the automatic component-count search of
// AutoExplain. It extends the paper, which leaves |F′| and |F″| to the
// analyst (§3.5): AutoExplain grows the explainer until the marginal
// fidelity gain falls below a tolerance — the elbow the paper reads off
// Fig. 7 by hand.
type AutoConfig struct {
	// Base carries all pipeline settings except NumUnivariate and
	// NumInteractions, which the search controls.
	Base Config
	// MaxUnivariate caps the spline search (default 10, or the number of
	// features used by the forest when smaller).
	MaxUnivariate int
	// MaxInteractions caps the tensor-term search (default 4).
	MaxInteractions int
	// Tolerance is the minimum relative RMSE improvement required to
	// accept another component (default 0.03 — the paper accepts 7
	// splines on Superconductivity because further terms add only a few
	// percent).
	Tolerance float64
}

func (c AutoConfig) withDefaults(f *forest.Forest) AutoConfig {
	if c.MaxUnivariate == 0 {
		c.MaxUnivariate = 10
	}
	if used := len(f.UsedFeatures()); c.MaxUnivariate > used {
		c.MaxUnivariate = used
	}
	if c.MaxInteractions == 0 {
		c.MaxInteractions = 4
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.03
	}
	return c
}

// AutoStep records one candidate configuration evaluated by AutoExplain.
type AutoStep struct {
	NumUnivariate   int
	NumInteractions int
	RMSE            float64
	Accepted        bool
}

// AutoExplain searches for the smallest explainer whose fidelity is
// within Tolerance of diminishing returns. All candidates are fitted on
// ONE synthetic dataset sampled over the maximal feature set, so their
// RMSEs are directly comparable (sampling per-candidate would change the
// variance of the target across candidates — the Fig. 7 comparability
// requirement). It adds splines in gain order while each improves
// held-out RMSE by at least Tolerance relatively, then interaction terms
// the same way, and returns the chosen explanation plus the full trace.
// Runs on the shared process-wide engine; use NewEngine for an isolated
// cache.
func AutoExplain(f *forest.Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return shared.AutoExplainCtx(context.Background(), f, cfg)
}

// AutoExplainCtx is AutoExplain with context propagation: the search
// opens one obs span per evaluated candidate, so traces show where the
// component search spends its time. Runs on the shared process-wide
// engine.
func AutoExplainCtx(ctx context.Context, f *forest.Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return shared.AutoExplainCtx(ctx, f, cfg)
}

// AutoExplainCtx runs the component search through e's artifact cache.
// The search shares the stats/featsel/domains/sample/interactions
// artifacts with plain ExplainCtx calls over the same forest and base
// configuration — a warm engine skips straight to the candidate fits,
// which run directly (outside the fit stage: each is a one-off spec).
func (e *Engine) AutoExplainCtx(ctx context.Context, f *forest.Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	ex, steps, err := e.autoExplainCtx(ctx, f, cfg)
	if err != nil {
		obs.RecordError("core.auto_explain", err)
	}
	return ex, steps, err
}

func (e *Engine) autoExplainCtx(ctx context.Context, f *forest.Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	cfg = cfg.withDefaults(f)
	base := cfg.Base.withDefaults()
	if base.Family != FamilyGAM {
		return nil, nil, fmt.Errorf("gef: AutoExplain searches GAM structure; family %q is not supported: %w",
			base.Family, robust.ErrConfig)
	}
	ctx, root := obs.Start(ctx, "gef.auto_explain",
		obs.Int("max_univariate", cfg.MaxUnivariate),
		obs.Int("max_interactions", cfg.MaxInteractions),
		obs.F64("tolerance", cfg.Tolerance))
	defer root.End()
	p, err := e.newPipeline(f, base)
	if err != nil {
		return nil, nil, err
	}
	if err := p.selectFeatures(ctx, cfg.MaxUnivariate); err != nil {
		return nil, nil, err
	}
	if len(p.features) == 0 {
		return nil, nil, fmt.Errorf("gef: forest has no split nodes to explain: %w", robust.ErrDegenerate)
	}

	// The domains stage walks the drop-feature ladder for degenerate
	// domains, so the search degrades like ExplainCtx instead of
	// aborting; any simplifications surface in Explanation.Degradations.
	if err := p.buildDomains(ctx); err != nil {
		return nil, nil, err
	}
	if err := p.buildSample(ctx); err != nil {
		return nil, nil, err
	}
	features := p.features
	train, test := p.train, p.test

	var pairs []featsel.Pair
	if cfg.MaxInteractions > 0 && len(features) >= 2 {
		var err error
		pairs, err = p.rankInteractions(ctx)
		if err != nil {
			return nil, nil, err
		}
	}

	// Candidates are term prefixes of two widest specs: ns splines in
	// gain order, then — once ns is fixed — those ns splines plus ni
	// tensor terms in pair rank order (heredity: pairs within the first
	// ns features). The spline spec gets one shared gam.Design, the
	// tensor spec extends its first ns terms, and every candidate fits
	// the leading columns of one of the two.
	splineSpec, err := buildSpec(f, p.stats.thresholds, features, nil, base)
	if err != nil {
		return nil, nil, err
	}
	splineDesign := gam.NewDesign(splineSpec, train.X, train.Y)
	var tensorDesign *gam.Design
	var heredity []featsel.Pair // pairs within the first ns features, in rank order
	// fit fits the candidate with ns splines and ni tensor terms.
	fit := func(ns, ni int) (*gam.Model, []featsel.Pair, float64, error) {
		cctx, csp := obs.Start(ctx, "auto.candidate",
			obs.Int("splines", ns), obs.Int("interactions", ni))
		defer csp.End()
		var m *gam.Model
		var err error
		if ni == 0 {
			m, err = splineDesign.FitCtx(cctx, ns, base.GAM)
		} else {
			m, err = tensorDesign.FitCtx(cctx, ns+ni, base.GAM)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		rmse := stats.RMSE(m.PredictBatch(test.X), test.Y)
		csp.Set(obs.F64("rmse", rmse))
		return m, heredity[:ni:ni], rmse, nil
	}
	var trace []AutoStep
	bestModel, bestPairs, bestRMSE, err := fit(1, 0)
	if err != nil {
		return nil, nil, robust.CtxErr(err)
	}
	ns, ni := 1, 0
	trace = append(trace, AutoStep{NumUnivariate: 1, RMSE: bestRMSE, Accepted: true})
	for ns < len(features) {
		m, sp, rmse, err := fit(ns+1, 0)
		if errors.Is(err, robust.ErrNumerical) {
			// A numerically unfittable candidate ends the search at the
			// last accepted model instead of aborting: growing further
			// would only make the system worse conditioned.
			root.Event("auto.stopped", obs.Str("reason", err.Error()),
				obs.Int("splines", ns+1))
			break
		}
		if err != nil {
			return nil, nil, robust.CtxErr(err)
		}
		improved := relImprovement(bestRMSE, rmse) >= cfg.Tolerance
		trace = append(trace, AutoStep{NumUnivariate: ns + 1, RMSE: rmse, Accepted: improved})
		if !improved {
			break
		}
		bestModel, bestPairs, bestRMSE, ns = m, sp, rmse, ns+1
	}
	if cfg.MaxInteractions > 0 && ns >= 2 {
		inSel := make(map[int]bool, ns)
		for _, ft := range features[:ns] {
			inSel[ft] = true
		}
		for _, pr := range pairs {
			if len(heredity) == cfg.MaxInteractions {
				break
			}
			if inSel[pr.I] && inSel[pr.J] {
				heredity = append(heredity, pr)
			}
		}
		tensorSpec, err := buildSpec(f, p.stats.thresholds, nil, heredity, base)
		if err != nil {
			return nil, nil, err
		}
		tensorDesign = splineDesign.Extend(ns, tensorSpec.Terms...)
	}
	// Stop when no heredity pair is left to add.
	for ni < len(heredity) {
		m, sp, rmse, err := fit(ns, ni+1)
		if errors.Is(err, robust.ErrNumerical) {
			root.Event("auto.stopped", obs.Str("reason", err.Error()),
				obs.Int("splines", ns), obs.Int("interactions", ni+1))
			break
		}
		if err != nil {
			return nil, nil, robust.CtxErr(err)
		}
		improved := relImprovement(bestRMSE, rmse) >= cfg.Tolerance
		trace = append(trace, AutoStep{NumUnivariate: ns, NumInteractions: ni + 1, RMSE: rmse, Accepted: improved})
		if !improved {
			break
		}
		bestModel, bestPairs, bestRMSE, ni = m, sp, rmse, ni+1
	}

	chosen := base
	chosen.NumUnivariate = ns
	chosen.NumInteractions = ni
	ex := &Explanation{
		Family:       FamilyGAM,
		Surrogate:    &gamModel{m: bestModel},
		Model:        bestModel,
		Features:     append([]int(nil), features[:ns]...),
		Pairs:        bestPairs,
		Domains:      p.domains,
		Train:        train,
		Test:         test,
		Forest:       f,
		Config:       chosen,
		Degradations: p.degr,
	}
	pred := bestModel.PredictBatch(test.X)
	ex.Fidelity = Fidelity{RMSE: bestRMSE, R2: stats.R2(pred, test.Y)}
	return ex, trace, nil
}

// relImprovement returns the relative RMSE reduction from old to new
// (positive when new is better).
func relImprovement(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return (old - new) / old
}

package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/lime"
	"gef/internal/robust"
	"gef/internal/rules"
	"gef/internal/sampling"
	"gef/internal/smoother"
	"gef/internal/stats"
)

// Explainer family names. The fit stage is a registry of Surrogate
// implementations selected by Config.Family; every other pipeline stage
// (feature selection, domains, D* sampling, interaction ranking) is
// shared, so switching families on a warm engine reuses all upstream
// artifacts.
const (
	// FamilyGAM is the paper's explainer: a penalized B-spline GAM with
	// optional tensor interaction terms (the default).
	FamilyGAM = "gam"
	// FamilyRules produces per-prediction reduced conjunctive rules in
	// the LionForests style (internal/rules).
	FamilyRules = "rules"
	// FamilySmoother is the forest-guided kernel smoother with
	// proximity-adaptive bandwidths (internal/smoother).
	FamilySmoother = "smoother"
	// FamilyLIME is the global-LIME baseline: one ridge surrogate fitted
	// around the sampling domains' fill point (internal/lime).
	FamilyLIME = "lime"
	// FamilyDistill is the single-tree distillation baseline
	// (internal/distill's tree trained on the shared D*).
	FamilyDistill = "distill"
)

// SurrogateModel is a fitted explainer of any family: it predicts the
// forest's response and serializes its family-specific payload. The
// richer per-family APIs (GAM term curves, rule extraction, bandwidth
// reports) stay on the concrete types; Explanation.Model exposes the
// GAM directly and Explanation.Surrogate carries every family.
type SurrogateModel interface {
	// Family returns the family name the model was fitted by.
	Family() string
	// Predict evaluates the surrogate at one full-width instance.
	Predict(x []float64) float64
	// PredictBatch evaluates every row (parallel families honor the
	// bitwise-determinism contract).
	PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error)
	// MarshalPayload serializes the family-specific model state for the
	// versioned explanation format.
	MarshalPayload() ([]byte, error)
}

// FitInput is everything the shared pipeline hands a Surrogate: the
// forest, the defaulted configuration, and the cached upstream artifacts
// (selected features, ranked pairs, threshold sets, sampling domains and
// the D* split). Artifacts are shared with the engine cache — fitters
// must treat them as immutable.
type FitInput struct {
	Forest     *forest.Forest
	Config     Config
	Features   []int
	Pairs      []featsel.Pair
	Thresholds map[int][]float64
	Domains    *sampling.Domains
	Train      *dataset.Dataset
	Test       *dataset.Dataset
}

// Surrogate is one pluggable explainer family behind the fit stage.
type Surrogate interface {
	// Name is the family name (one of the Family* constants for the
	// built-in families).
	Name() string
	// Key returns the family-specific fragment of the fit-stage cache
	// key, derived from the effective (defaulted) configuration: it must
	// cover every config field the fit reads beyond the sample key and
	// the pair list, which the engine already keys on.
	Key(cfg Config) string
	// Fit fits the family on the shared artifacts. Returned degradations
	// are recorded by the caller's pipeline; an ErrNumerical failure
	// makes the fit stage walk the family fallback ladder.
	Fit(ctx context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error)
}

// PayloadCodec is implemented by families whose serialized payload can
// be reloaded into a (possibly reduced-capability) SurrogateModel.
type PayloadCodec interface {
	UnmarshalPayload(data []byte) (SurrogateModel, error)
}

// familyFallback is the cross-family degradation ladder, walked when a
// family fails with ErrNumerical even after its own in-family recovery:
// richer families fall back to structurally simpler ones. The rules
// family is the floor — its fit only needs the forest's own outputs.
var familyFallback = map[string]string{
	FamilySmoother: FamilyGAM,
	FamilyGAM:      FamilyRules,
}

var (
	surrogatesMu sync.Mutex
	surrogates   = make(map[string]Surrogate)
)

// RegisterSurrogate adds a family to the fit-stage registry. Registering
// a duplicate name panics: families are wired at init time and a
// collision is a programming error, not a runtime condition.
func RegisterSurrogate(s Surrogate) {
	surrogatesMu.Lock()
	defer surrogatesMu.Unlock()
	if _, dup := surrogates[s.Name()]; dup {
		panic(fmt.Sprintf("core: surrogate family %q registered twice", s.Name()))
	}
	surrogates[s.Name()] = s
}

// Families returns the registered family names, sorted.
//
//lint:ignore obsspan registry snapshot over a handful of entries; too cheap to span
func Families() []string {
	surrogatesMu.Lock()
	defer surrogatesMu.Unlock()
	names := make([]string, 0, len(surrogates))
	for n := range surrogates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// surrogateFor resolves a family name, failing with a typed ErrConfig
// that lists the registered families.
func surrogateFor(name string) (Surrogate, error) {
	surrogatesMu.Lock()
	s, ok := surrogates[name]
	surrogatesMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gef: unknown explainer family %q (registered: %s): %w",
			name, strings.Join(Families(), ", "), robust.ErrConfig)
	}
	return s, nil
}

func init() {
	RegisterSurrogate(gamSurrogate{})
	RegisterSurrogate(rulesSurrogate{})
	RegisterSurrogate(smootherSurrogate{})
	RegisterSurrogate(limeSurrogate{})
	RegisterSurrogate(distillSurrogate{})
}

// fitArtifact is the fit stage's cacheable output: the fitted model, its
// fidelity on the D* test split (pinned by the sample key, so it is a
// pure function of the fit key) and the degradations its fit recorded,
// so a cache hit replays the same simplification record the original
// computation produced (mirroring domainsArtifact).
type fitArtifact struct {
	model    SurrogateModel
	fidelity Fidelity
	degr     []robust.Degradation
}

// cost approximates the artifact's resident bytes for the engine's
// cache budget (see artifactCost).
func (a *fitArtifact) cost() int64 {
	switch m := a.model.(type) {
	case *smootherModel:
		p := m.m.Payload()
		c := int64(len(p.Dict))*int64(len(p.Features)+1)*8 + 512
		return c + int64(len(p.Bandwidths))*8
	case *distillModel:
		nodes := 0
		for _, t := range m.tree.Trees {
			nodes += len(t.Nodes)
		}
		return int64(nodes)*48 + 512
	case *limeModel:
		return int64(len(m.p.Weights)+len(m.p.X0)+len(m.p.SDs))*8 + 512
	case *gamModel:
		return m.m.SizeBytes()
	default:
		// Rule models hold a pointer to the forest's flat form (owned by
		// the sealed forest, not this entry) plus a summary.
		return 2048
	}
}

// pairsKey renders a pair list compactly for fit-stage cache keys.
func pairsKey(pairs []featsel.Pair) string {
	var b strings.Builder
	for i, pr := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(pr.I))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(pr.J))
	}
	return b.String()
}

// --- gam -------------------------------------------------------------------

// gamSurrogate adapts the paper's GAM fit (spec construction + the
// structural degradation ladder) to the Surrogate interface.
type gamSurrogate struct{}

func (gamSurrogate) Name() string { return FamilyGAM }

// Key covers what the GAM fit reads beyond the sample key and the pair
// list: the basis sizes, the categorical threshold buildSpec applies
// (which may differ from the Sampling one in the domains key) and the
// fitting options.
func (gamSurrogate) Key(cfg Config) string {
	return "sb=" + strconv.Itoa(cfg.SplineBasis) + "|tb=" + strconv.Itoa(cfg.TensorBasis) +
		"|cat=" + strconv.Itoa(cfg.CategoricalThreshold) + "|lam=" + floatsKey(cfg.GAM.Lambdas) +
		"|irls=" + strconv.Itoa(cfg.GAM.MaxIRLS) + "|tol=" + fbits(cfg.GAM.Tol)
}

func (gamSurrogate) Fit(ctx context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error) {
	spec, err := buildSpec(in.Forest, in.Thresholds, in.Features, in.Pairs, in.Config)
	if err != nil {
		return nil, nil, err
	}
	var degr []robust.Degradation
	m, err := fitLadder(ctx, spec, in.Train, in.Config.GAM, &degr)
	if err != nil {
		return nil, degr, err
	}
	return &gamModel{m: m}, degr, nil
}

func (gamSurrogate) UnmarshalPayload(data []byte) (SurrogateModel, error) {
	m, err := gam.UnmarshalModel(data)
	if err != nil {
		return nil, err
	}
	return &gamModel{m: m}, nil
}

// gamModel wraps the fitted GAM behind the family-neutral interface.
type gamModel struct{ m *gam.Model }

func (g *gamModel) Family() string              { return FamilyGAM }
func (g *gamModel) Predict(x []float64) float64 { return g.m.Predict(x) }

func (g *gamModel) PredictBatch(_ context.Context, xs [][]float64) ([]float64, error) {
	return g.m.PredictBatch(xs), nil
}

func (g *gamModel) MarshalPayload() ([]byte, error) { return g.m.Marshal(false) }

// --- rules -----------------------------------------------------------------

type rulesSurrogate struct{}

func (rulesSurrogate) Name() string { return FamilyRules }

func (rulesSurrogate) Key(cfg Config) string {
	c := cfg.Rules.WithDefaults()
	return "tol=" + fbits(c.Tolerance) + "|ss=" + strconv.Itoa(c.SummarySample)
}

func (rulesSurrogate) Fit(ctx context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error) {
	m, err := rules.Fit(ctx, in.Forest, in.Train, in.Config.Rules)
	if err != nil {
		return nil, nil, err
	}
	return &rulesModel{m: m}, nil, nil
}

func (rulesSurrogate) UnmarshalPayload(data []byte) (SurrogateModel, error) {
	var s rules.Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing rules payload: %w", err)
	}
	return &rulesModel{m: rules.FromSummary(s)}, nil
}

// rulesModel wraps the rule surrogate; Rules exposes the concrete model
// for per-instance rule extraction.
type rulesModel struct{ m *rules.Model }

func (r *rulesModel) Family() string              { return FamilyRules }
func (r *rulesModel) Predict(x []float64) float64 { return r.m.Predict(x) }

func (r *rulesModel) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	return r.m.PredictBatch(ctx, xs)
}

func (r *rulesModel) MarshalPayload() ([]byte, error) { return json.Marshal(r.m.Summary()) }

// Rules returns the concrete rule model (for Explain / Summary).
func (r *rulesModel) Rules() *rules.Model { return r.m }

// --- smoother --------------------------------------------------------------

type smootherSurrogate struct{}

func (smootherSurrogate) Name() string { return FamilySmoother }

func (smootherSurrogate) Key(cfg Config) string {
	c := cfg.Smoother.WithDefaults()
	return "d=" + strconv.Itoa(c.DictSize) + "|ps=" + strconv.Itoa(c.ProximitySample) +
		"|pt=" + fbits(c.ProximityThreshold) + "|bs=" + fbits(c.BandwidthScale)
}

func (smootherSurrogate) Fit(ctx context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error) {
	m, err := smoother.Fit(ctx, in.Forest, in.Features, in.Train, in.Config.Smoother)
	if err != nil {
		return nil, nil, err
	}
	return &smootherModel{m: m}, nil, nil
}

func (smootherSurrogate) UnmarshalPayload(data []byte) (SurrogateModel, error) {
	var p smoother.Payload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing smoother payload: %w", err)
	}
	m, err := smoother.FromPayload(p)
	if err != nil {
		return nil, err
	}
	return &smootherModel{m: m}, nil
}

type smootherModel struct{ m *smoother.Model }

func (s *smootherModel) Family() string              { return FamilySmoother }
func (s *smootherModel) Predict(x []float64) float64 { return s.m.Predict(x) }

func (s *smootherModel) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	return s.m.PredictBatch(ctx, xs)
}

func (s *smootherModel) MarshalPayload() ([]byte, error) { return json.Marshal(s.m.Payload()) }

// Smoother returns the concrete kernel-smoother model.
func (s *smootherModel) Smoother() *smoother.Model { return s.m }

// --- lime ------------------------------------------------------------------

// limeBackgroundCap bounds the D* rows used as the LIME background (the
// scale estimate converges long before that) and limeSamples the
// perturbation count of the single global fit.
const (
	limeBackgroundCap = 512
	limeSamples       = 2000
)

// limeSurrogate fits ONE LIME ridge surrogate around the sampling
// domains' fill point and serves it globally. That is deliberately the
// method's weakness the extra-families comparison exposes: a local
// linear model asked a global question.
type limeSurrogate struct{}

func (limeSurrogate) Name() string { return FamilyLIME }

// Key versions the adapter: the fit depends only on the D* artifacts
// (already in the stage key) and Config.Seed (already in the sample
// key), so a constant fragment makes it cacheable.
func (limeSurrogate) Key(Config) string { return "v1" }

//lint:ignore obsspan runs inside the engine's fit-stage span; lime.Explain carries its own instrumentation
func (limeSurrogate) Fit(_ context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error) {
	background := in.Train.X
	if len(background) > limeBackgroundCap {
		background = background[:limeBackgroundCap]
	}
	x0 := append([]float64(nil), in.Domains.Fill...)
	ex, err := lime.Explain(in.Forest.Predict, background, x0, lime.Config{
		NumSamples: limeSamples,
		Seed:       in.Config.Seed + 11,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("lime fit: %w: %v", robust.ErrNumerical, err)
	}
	// Recompute the per-feature scales exactly as lime.Explain does, so
	// the wrapped predictor applies the coefficients in the same z-space
	// they were fitted in.
	sds := make([]float64, len(x0))
	col := make([]float64, len(background))
	for j := range sds {
		for i, row := range background {
			col[i] = row[j]
		}
		sds[j] = stats.StdDev(col)
		if sds[j] == 0 {
			sds[j] = 1
		}
	}
	return &limeModel{p: limePayload{
		Intercept: ex.Intercept,
		Weights:   ex.Weights,
		X0:        x0,
		SDs:       sds,
		R2:        ex.R2,
	}}, nil, nil
}

func (limeSurrogate) UnmarshalPayload(data []byte) (SurrogateModel, error) {
	var p limePayload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("parsing lime payload: %w", err)
	}
	if len(p.Weights) != len(p.X0) || len(p.SDs) != len(p.X0) {
		return nil, fmt.Errorf("inconsistent lime payload (%d weights, %d anchors, %d scales)",
			len(p.Weights), len(p.X0), len(p.SDs))
	}
	return &limeModel{p: p}, nil
}

// limePayload is the serialized global-LIME surrogate: the ridge
// coefficients plus the anchor point and scales they standardize
// against.
type limePayload struct {
	Intercept float64   `json:"intercept"`
	Weights   []float64 `json:"weights"`
	X0        []float64 `json:"x0"`
	SDs       []float64 `json:"sds"`
	R2        float64   `json:"r2"`
}

type limeModel struct{ p limePayload }

func (l *limeModel) Family() string { return FamilyLIME }

//lint:ignore obsspan per-row hot path (one multiply-add per feature); PredictBatch is the spanned entry
func (l *limeModel) Predict(x []float64) float64 {
	out := l.p.Intercept
	for j, w := range l.p.Weights {
		out += w * (x[j] - l.p.X0[j]) / l.p.SDs[j]
	}
	return out
}

//lint:ignore obsspan a linear pass over rows bounded by the caller's fidelity span; spanning here would double-count
func (l *limeModel) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	if err := robust.CtxErr(ctx.Err()); err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = l.Predict(x)
	}
	return out, nil
}

func (l *limeModel) MarshalPayload() ([]byte, error) { return json.Marshal(l.p) }

// --- distill ---------------------------------------------------------------

// distillSurrogate trains internal/distill's single shallow tree, but on
// the pipeline's shared D* split instead of resampling its own — so a
// family sweep on one engine reuses the sample artifact across all five
// families.
type distillSurrogate struct{}

func (distillSurrogate) Name() string { return FamilyDistill }

func (distillSurrogate) Key(Config) string { return "v1" }

func (distillSurrogate) Fit(ctx context.Context, in *FitInput) (SurrogateModel, []robust.Degradation, error) {
	if err := robust.CtxErr(ctx.Err()); err != nil {
		return nil, nil, err
	}
	// Distillation targets are forest outputs on the response scale; a
	// single regression tree fits both tasks (matching internal/distill).
	ds := &dataset.Dataset{X: in.Train.X, Y: in.Train.Y, Task: dataset.Regression}
	tree, err := gbdt.Train(ds, gbdt.Params{
		NumTrees:       1,
		NumLeaves:      distillLeaves(in.Config),
		LearningRate:   1, // no shrinkage: the single tree is the model
		MinSamplesLeaf: 20,
		Lambda:         1e-9,
		Seed:           in.Config.Seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("distill fit: %w: %v", robust.ErrNumerical, err)
	}
	return &distillModel{tree: tree}, nil, nil
}

// distillLeaves maps the distill default through (kept as a function so
// a future Config knob lands in exactly one place).
func distillLeaves(Config) int { return 16 }

func (distillSurrogate) UnmarshalPayload(data []byte) (SurrogateModel, error) {
	tree, err := forest.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("parsing distill payload: %w", err)
	}
	return &distillModel{tree: tree}, nil
}

type distillModel struct{ tree *forest.Forest }

func (d *distillModel) Family() string              { return FamilyDistill }
func (d *distillModel) Predict(x []float64) float64 { return d.tree.Predict(x) }

func (d *distillModel) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	out, err := d.tree.PredictBatchCtx(ctx, xs)
	if err != nil {
		return nil, robust.CtxErr(err)
	}
	return out, nil
}

func (d *distillModel) MarshalPayload() ([]byte, error) { return forest.Marshal(d.tree) }

// Tree returns the distilled surrogate tree (for distill.Result.Rules
// style rendering).
func (d *distillModel) Tree() *forest.Forest { return d.tree }

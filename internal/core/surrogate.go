package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/robust"
	"gef/internal/rules"
	"gef/internal/smoother"
)

// Explainer family names. The fit stage is a closed set of Surrogate
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
// (selected features, ranked pairs, threshold sets and the D* training
// split). Artifacts are shared with the engine cache — fitters must
// treat them as immutable.
type FitInput struct {
	Forest     *forest.Forest
	Config     Config
	Features   []int
	Pairs      []featsel.Pair
	Thresholds map[int][]float64
	Train      *dataset.Dataset
}

// Surrogate is one explainer family behind the fit stage.
type Surrogate interface {
	// Name is the family name (one of the Family* constants).
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
	// UnmarshalPayload reloads a payload written by MarshalPayload into
	// a (possibly reduced-capability) SurrogateModel.
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

// families is the fit stage's closed set of explainer families, in
// presentation order.
var families = [...]Surrogate{gamSurrogate{}, rulesSurrogate{}, smootherSurrogate{}}

// Families returns the explainer family names in presentation order:
// gam, rules, smoother.
//
//lint:ignore obsspan copies a three-entry table; too cheap to span
func Families() []string {
	names := make([]string, len(families))
	for i, s := range families {
		names[i] = s.Name()
	}
	return names
}

// surrogateFor resolves a family name, failing with a typed ErrConfig
// that lists the known families.
func surrogateFor(name string) (Surrogate, error) {
	for _, s := range families {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("gef: unknown explainer family %q (known: %s): %w",
		name, strings.Join(Families(), ", "), robust.ErrConfig)
}

// fitArtifact is the fit stage's cacheable output: the fitted model, its
// fidelity on the D* test split (pinned by the sample key, so it is a
// pure function of the fit key) and the degradations its fit recorded,
// so a cache hit replays the same simplification record the original
// computation produced (mirroring domainsArtifact). enc memoizes the
// encoded heavy parts of every explanation served from it.
type fitArtifact struct {
	model    SurrogateModel
	fidelity Fidelity
	degr     []robust.Degradation
	enc      encodeMemo
}

// cost approximates the artifact's resident bytes for the engine's
// cache budget (see artifactCost).
func (a *fitArtifact) cost() int64 {
	switch m := a.model.(type) {
	case *smootherModel:
		p := m.m.Payload()
		c := int64(len(p.Dict))*int64(len(p.Features)+1)*8 + 512
		return c + int64(len(p.Bandwidths))*8
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

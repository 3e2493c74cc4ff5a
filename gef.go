// Package gef is the public API of GEF — GAM-based Explanation of
// Forests — a from-scratch Go reproduction of "GAM Forest Explanation"
// (Lucchese, Perego, Orlando, Veneri; EDBT 2023).
//
// GEF produces a Generalized Additive Model that explains a forest of
// decision trees both globally (one spline per important feature, plus
// optional bivariate tensor terms) and locally (per-term contributions
// for any instance), using only the forest itself — never the data it
// was trained on:
//
//	f, _ := gef.TrainForest(trainingData, gef.ForestParams{NumTrees: 300})
//	e, _ := gef.Explain(f, gef.Config{NumUnivariate: 7})
//	for i := 0; i < e.Model.NumTerms(); i++ {
//	    curve, _ := e.Model.TermCurve(i, grid, 0.95)
//	    // plot curve.Y with curve.Lower/curve.Upper confidence bands
//	}
//
// The package is a facade over the internal implementation: the forest
// data model and GBDT/Random-Forest trainers (internal/forest,
// internal/gbdt), threshold-based sampling strategies (internal/sampling),
// feature and interaction selection (internal/featsel), the penalized
// B-spline GAM fitter (internal/gam), the rule and kernel-smoother
// explainer families (internal/rules, internal/smoother), and the
// SHAP/LIME/distilled-tree comparison baselines (internal/shap,
// internal/lime, internal/distill).
package gef

import (
	"context"
	"io"
	"net/http"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/distill"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/lime"
	"gef/internal/obs"
	"gef/internal/pdp"
	"gef/internal/robust"
	"gef/internal/rules"
	"gef/internal/sampling"
	"gef/internal/shap"
	"gef/internal/smoother"
)

// Forest is an additive ensemble of binary decision trees — the black-box
// model GEF explains. Forests are produced by TrainForest /
// TrainRandomForest or deserialized with LoadForest, and come back
// sealed: validated once, with their fingerprint stored and their flat
// compilation attached (Forest.Seal; Explain seals any forest it is
// handed). Do not modify a sealed forest — build a new one, as
// Forest.Truncate does.
type Forest = forest.Forest

// Tree and Node expose the forest structure (GEF assumes full access to
// the forest, including test nodes and leaves).
type (
	Tree = forest.Tree
	Node = forest.Node
)

// Objective identifies the forest's output scale.
type Objective = forest.Objective

// Forest objectives.
const (
	Regression     = forest.Regression
	BinaryLogistic = forest.BinaryLogistic
)

// Dataset is a dense numeric dataset.
type Dataset = dataset.Dataset

// Dataset task markers.
const (
	RegressionTask     = dataset.Regression
	ClassificationTask = dataset.Classification
)

// ForestParams configures gradient-boosting training (LightGBM-style:
// histogram splits, leaf-wise growth, shrinkage, early stopping).
type ForestParams = gbdt.Params

// RandomForestParams configures bagged Random-Forest training.
type RandomForestParams = gbdt.RFParams

// TrainReport records per-iteration training/validation losses.
type TrainReport = gbdt.Report

// TrainForest fits a GBDT forest on ds.
func TrainForest(ds *Dataset, p ForestParams) (*Forest, error) {
	return gbdt.Train(ds, p)
}

// TrainForestValid fits a GBDT forest with a validation set and early
// stopping.
func TrainForestValid(train, valid *Dataset, p ForestParams) (*Forest, *TrainReport, error) {
	return gbdt.TrainValid(train, valid, p)
}

// TrainRandomForest fits a bagged Random Forest on ds.
func TrainRandomForest(ds *Dataset, p RandomForestParams) (*Forest, error) {
	return gbdt.TrainRF(ds, p)
}

// SaveForest serializes a forest to a JSON file; LoadForest reads it
// back. This is the hand-off format for the paper's third-party scenario:
// the explainer needs only this file, not the training data.
func SaveForest(f *Forest, path string) error { return forest.SaveFile(f, path) }

// LoadForest reads a forest serialized by SaveForest.
func LoadForest(path string) (*Forest, error) { return forest.LoadFile(path) }

// Config controls the GEF pipeline; zero values take the paper's
// defaults (|F′| = 5, Equi-Size sampling, Gain-Path interactions,
// N = 100,000, L = 10, the gam explainer family).
type Config = core.Config

// SurrogateModel is a fitted explainer of any family: it predicts the
// forest's response and serializes its family-specific payload. See
// Explanation.Surrogate; the gam family's richer API stays on
// Explanation.Model.
type SurrogateModel = core.SurrogateModel

// Explainer family names for Config.Family. Every family shares the
// upstream pipeline stages (feature selection, sampling domains, D*),
// so switching families on a warm session reuses those artifacts.
const (
	// FamilyGAM is the paper's explainer (default): a penalized
	// B-spline GAM with optional tensor interaction terms.
	FamilyGAM = core.FamilyGAM
	// FamilyRules produces per-prediction reduced conjunctive rules
	// (LionForests-style; see RulesConfig).
	FamilyRules = core.FamilyRules
	// FamilySmoother is the forest-guided kernel smoother with
	// proximity-adaptive bandwidths (see SmootherConfig).
	FamilySmoother = core.FamilySmoother
)

// Families returns the explainer family names in presentation order:
// gam, rules, smoother. The LIME and single-tree distillation baselines
// are not families; they run through ExplainLIME and DistillTree.
func Families() []string { return core.Families() }

// RulesConfig configures the rule explainer family (Config.Rules).
type RulesConfig = rules.Config

// RuleModel is the rule family's concrete fitted model: per-instance
// reduced conjunctive rules. Obtain it with RulesOf.
type RuleModel = rules.Model

// Rule is one reduced conjunctive explanation ("f1 > 0.2 AND
// f3 ∈ (0.1, 0.8] → 4.21").
type Rule = rules.Rule

// RulesOf returns the rule family's concrete model behind an
// explanation's surrogate (nil when the explanation is not rule-family).
func RulesOf(e *Explanation) *RuleModel {
	if rm, ok := e.Surrogate.(interface{ Rules() *rules.Model }); ok {
		return rm.Rules()
	}
	return nil
}

// SmootherConfig configures the kernel-smoother family (Config.Smoother).
type SmootherConfig = smoother.Config

// SmootherModel is the smoother family's concrete fitted model
// (bandwidth reports, serializable payload). Obtain it with SmootherOf.
type SmootherModel = smoother.Model

// SmootherOf returns the smoother family's concrete model behind an
// explanation's surrogate (nil when the explanation is not
// smoother-family).
func SmootherOf(e *Explanation) *SmootherModel {
	if sm, ok := e.Surrogate.(interface{ Smoother() *smoother.Model }); ok {
		return sm.Smoother()
	}
	return nil
}

// Explanation is the result of Explain: the fitted GAM, the selected
// features F′ and interactions F″, the synthetic dataset D*, and
// fidelity measurements.
type Explanation = core.Explanation

// Fidelity reports surrogate faithfulness on held-out D*.
type Fidelity = core.Fidelity

// LocalExplanation decomposes one prediction into per-term contributions.
type LocalExplanation = core.LocalExplanation

// Explain runs the full GEF pipeline on a forest: feature selection from
// gains, threshold-based sampling of D*, interaction selection, and GAM
// fitting. Only the forest is consulted.
func Explain(f *Forest, cfg Config) (*Explanation, error) {
	return core.Explain(f, cfg)
}

// ExplainContext is Explain with context propagation: pipeline stages
// open observability spans (see SetTraceSink) as children of the span
// carried by ctx.
func ExplainContext(ctx context.Context, f *Forest, cfg Config) (*Explanation, error) {
	return core.ExplainCtx(ctx, f, cfg)
}

// AutoConfig controls AutoExplain's component-count search.
type AutoConfig = core.AutoConfig

// AutoStep is one evaluated candidate in an AutoExplain search.
type AutoStep = core.AutoStep

// AutoExplain chooses |F′| and |F″| automatically: it grows the explainer
// while each added component improves held-out fidelity by at least the
// configured tolerance, evaluating all candidates on a common synthetic
// dataset. This automates the elbow the paper reads off its Fig. 7.
func AutoExplain(f *Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return core.AutoExplain(f, cfg)
}

// AutoExplainContext is AutoExplain with context propagation (one
// observability span per evaluated candidate).
func AutoExplainContext(ctx context.Context, f *Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return core.AutoExplainCtx(ctx, f, cfg)
}

// --- Sessions & artifact reuse (internal/core engine) ---------------------

// Explainer is an explanation session over one (or more) forests. It
// wraps the staged pipeline engine: each stage — feature selection,
// sampling-domain construction, D* generation, interaction ranking, GAM
// fitting — produces an artifact keyed by the forest fingerprint plus
// the configuration fields that stage reads, held in a bounded
// in-memory cache. Repeated Explain calls with overlapping configs,
// AutoExplain searches and batch sweeps reuse forest statistics,
// domains, sampled datasets, interaction rankings and B-spline bases
// instead of recomputing them; outputs are bitwise identical to a cold
// run. An Explainer is safe for concurrent use.
//
// The package-level Explain/AutoExplain functions share one
// process-wide session; NewExplainer isolates a cache (and its memory)
// per analysis.
type Explainer struct {
	eng *core.Engine
	f   *Forest
}

// CacheStats summarizes an Explainer's artifact cache (global and
// per-stage hit/miss counts, resident entries and bytes).
type CacheStats = core.CacheStats

// NewExplainer opens an explanation session for f with a fresh artifact
// cache. The forest is captured once; every call on the session
// explains it.
func NewExplainer(f *Forest) *Explainer {
	return &Explainer{eng: core.NewEngine(), f: f}
}

// Explain runs the GEF pipeline through the session cache.
func (s *Explainer) Explain(cfg Config) (*Explanation, error) {
	return s.eng.Explain(s.f, cfg)
}

// ExplainContext is Explain with context propagation.
func (s *Explainer) ExplainContext(ctx context.Context, cfg Config) (*Explanation, error) {
	return s.eng.ExplainCtx(ctx, s.f, cfg)
}

// AutoExplain runs the component-count search through the session
// cache; after any prior call on the session it skips straight to the
// candidate fits.
func (s *Explainer) AutoExplain(cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return s.eng.AutoExplain(s.f, cfg)
}

// AutoExplainContext is AutoExplain with context propagation.
func (s *Explainer) AutoExplainContext(ctx context.Context, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return s.eng.AutoExplainCtx(ctx, s.f, cfg)
}

// CacheStats reports the session's artifact-cache statistics.
func (s *Explainer) CacheStats() CacheStats { return s.eng.CacheStats() }

// SharedCacheStats reports the cache statistics of the process-wide
// session behind the package-level Explain/AutoExplain functions.
func SharedCacheStats() CacheStats { return core.SharedEngine().CacheStats() }

// MarshalExplanation serializes an explanation to JSON (model included;
// with includeCI the credible-interval factor too). The forest and the
// D* splits are not serialized.
func MarshalExplanation(e *Explanation, includeCI bool) ([]byte, error) {
	return e.Marshal(includeCI)
}

// UnmarshalExplanation reloads an explanation serialized by
// MarshalExplanation. The result predicts and explains instances;
// Forest, Train and Test are nil.
func UnmarshalExplanation(data []byte) (*Explanation, error) {
	return core.Unmarshal(data)
}

// GAM surrogate model types.
type (
	// Model is a fitted GAM (the explainer Γ).
	Model = gam.Model
	// Curve is a univariate term evaluated on a grid with Bayesian
	// credible bands.
	Curve = gam.Curve
	// Surface is a bivariate tensor term on a 2-D grid.
	Surface = gam.Surface
	// TermSpec declares one additive component.
	TermSpec = gam.TermSpec
	// Contribution is one term's share of a prediction.
	Contribution = gam.Contribution
	// GAMSpec declares a full GAM structure for direct fitting.
	GAMSpec = gam.Spec
	// GAMOptions controls GAM fitting (λ grid, IRLS limits).
	GAMOptions = gam.Options
)

// Term kinds.
const (
	SplineTerm = gam.Spline
	FactorTerm = gam.Factor
	TensorTerm = gam.Tensor
)

// FitGAM fits a GAM directly on data — the building block Explain uses,
// exposed for callers who already have a dataset.
func FitGAM(spec GAMSpec, xs [][]float64, y []float64, opt GAMOptions) (*Model, error) {
	return gam.Fit(spec, xs, y, opt)
}

// SaveModel serializes a fitted GAM to a JSON file so an explanation can
// be published or archived. With includeCI the credible-interval factor
// (O(p²/2) floats) is embedded; without it the reloaded model predicts
// and explains but reports zero standard errors.
func SaveModel(m *Model, path string, includeCI bool) error {
	return m.SaveFile(path, includeCI)
}

// LoadModel reads a GAM serialized with SaveModel.
func LoadModel(path string) (*Model, error) { return gam.LoadModelFile(path) }

// SamplingStrategy selects how D* sampling domains are derived from the
// forest's thresholds.
type SamplingStrategy = sampling.Strategy

// Sampling strategies (§3.3 of the paper).
const (
	AllThresholds = sampling.AllThresholds
	KQuantile     = sampling.KQuantile
	EquiWidth     = sampling.EquiWidth
	KMeansDomains = sampling.KMeans
	EquiSize      = sampling.EquiSize
	RandomDomains = sampling.Random
)

// SamplingConfig configures domain construction (strategy, K, ε).
type SamplingConfig = sampling.Config

// InteractionStrategy ranks candidate feature pairs.
type InteractionStrategy = featsel.InteractionStrategy

// Interaction-detection strategies (§3.4 of the paper).
const (
	PairGain  = featsel.PairGain
	CountPath = featsel.CountPath
	GainPath  = featsel.GainPath
	HStat     = featsel.HStat
)

// InteractionPair is a scored feature pair.
type InteractionPair = featsel.Pair

// TopFeatures returns the k features with the largest accumulated gain.
func TopFeatures(f *Forest, k int) []int { return featsel.TopFeatures(f, k) }

// RankInteractions scores all pairs of the selected features with the
// given strategy (sample is required only for HStat).
func RankInteractions(f *Forest, selected []int, s InteractionStrategy, sample [][]float64) ([]InteractionPair, error) {
	return featsel.RankInteractions(f, selected, s, sample)
}

// ShapValues computes path-dependent TreeSHAP attributions for x on the
// raw-score scale, returning (φ, base) with raw(x) = base + Σφ.
func ShapValues(f *Forest, x []float64) (phi []float64, base float64) {
	return shap.Values(f, x)
}

// InterventionalShapValues computes SHAP attributions under the
// interventional (marginal) value function against an explicit
// background sample — the "true to the data" TreeSHAP variant. Cost is
// O(|background| · forest nodes) per instance.
func InterventionalShapValues(f *Forest, x []float64, background [][]float64) (phi []float64, base float64) {
	return shap.InterventionalValues(f, x, background)
}

// ShapAttribution pairs a feature with its SHAP value.
type ShapAttribution = shap.Attribution

// TopShap returns the k largest-magnitude attributions.
func TopShap(phi []float64, k int) []ShapAttribution { return shap.TopAttributions(phi, k) }

// DistillConfig configures single-tree distillation (the
// tree-prototyping baseline family from the paper's related work).
type DistillConfig = distill.Config

// DistilledTree is a single-tree surrogate with fidelity measurements.
type DistilledTree = distill.Result

// DistillTree summarizes a forest as one shallow decision tree trained on
// the forest's predictions over a threshold-derived synthetic dataset —
// like GEF, it needs no training data. Use Result.Rules for a readable
// rule list.
func DistillTree(f *Forest, cfg DistillConfig) (*DistilledTree, error) {
	return distill.Distill(f, cfg)
}

// PartialDependence evaluates the forest's one-dimensional partial
// dependence for feature j over a grid, averaged over the background
// sample.
func PartialDependence(f *Forest, background [][]float64, j int, grid []float64) []float64 {
	return pdp.Grid1D(f, background, j, grid)
}

// ICECurves computes Individual Conditional Expectation curves: one curve
// per background row as feature j sweeps the grid. Their average is the
// partial dependence; their spread reveals interactions.
func ICECurves(f *Forest, background [][]float64, j int, grid []float64) [][]float64 {
	return pdp.ICE(f, background, j, grid)
}

// HStatistic computes Friedman's pairwise interaction statistic for
// features (i, j) over the sample (the paper's most expensive
// interaction-detection strategy).
func HStatistic(f *Forest, sample [][]float64, i, j int) float64 {
	return pdp.HStatistic(f, sample, i, j)
}

// LimeConfig configures the LIME baseline.
type LimeConfig = lime.Config

// LimeExplanation is a fitted local ridge surrogate.
type LimeExplanation = lime.Explanation

// ExplainLIME fits a LIME local surrogate around x for an arbitrary
// predict function.
func ExplainLIME(predict func([]float64) float64, background [][]float64, x []float64, cfg LimeConfig) (*LimeExplanation, error) {
	return lime.Explain(predict, background, x, cfg)
}

// --- Fault tolerance (internal/robust) -----------------------------------

// Sentinel errors of the fault-tolerance taxonomy; match with errors.Is
// at any call depth. See DESIGN.md "Fault tolerance & degradation
// ladder" for the full contract.
var (
	// ErrDegenerate marks structurally unusable input (non-finite forest
	// values, empty or collapsed sampling domains). Not retryable.
	ErrDegenerate = robust.ErrDegenerate
	// ErrNumerical marks a computation that failed numerically after all
	// recovery (ridge escalation, step-halving, degradation ladder).
	ErrNumerical = robust.ErrNumerical
	// ErrDeadline marks a context deadline expiry; it always also matches
	// context.DeadlineExceeded.
	ErrDeadline = robust.ErrDeadline
	// ErrConfig marks an invalid configuration knob (NaN, negative, out
	// of domain) rejected by Config.Validate.
	ErrConfig = robust.ErrConfig
)

// Degradation records one structural simplification the pipeline made to
// keep producing a valid explanation (see Explanation.Degradations).
type Degradation = robust.Degradation

// --- Observability (internal/obs) ----------------------------------------

// TraceSink receives each completed pipeline span at End; see
// NewTextTraceSink and NewJSONTraceSink for the built-in implementations.
type TraceSink = obs.Sink

// TraceSpan is the record a TraceSink receives for each pipeline span:
// name, nesting, start, wall time and attributes.
type TraceSpan = obs.SpanData

// SpanAttr is one key/value annotation on a trace span.
type SpanAttr = obs.Attr

// SetTraceSink installs the process-wide trace sink. With a sink
// installed, Explain/AutoExplain/TrainForest/FitGAM emit one span per
// pipeline stage (P-IRLS iterations included). Pass nil to disable
// tracing; a disabled pipeline is byte-identical in output and
// effectively free.
func SetTraceSink(s TraceSink) { obs.SetSink(s) }

// NewTextTraceSink returns a writer of one human-readable line per
// completed span, indented by depth (the CLIs' -v mode).
func NewTextTraceSink(w io.Writer) TraceSink { return obs.NewTextSink(w) }

// NewJSONTraceSink returns a JSON-lines span writer for machine
// analysis (the CLIs' -trace output; `gef -chrome` renders such a file
// for chrome://tracing and Perfetto).
func NewJSONTraceSink(w io.Writer) TraceSink { return obs.NewJSONSink(w) }

// CombineTraceSinks fans spans out to several sinks (nil entries are
// dropped); its Flush flushes every sink and joins all their errors.
func CombineTraceSinks(sinks ...TraceSink) TraceSink { return obs.NewSinkTee(sinks...) }

// EnableStageProfiling toggles runtime/pprof goroutine labels per span:
// with it on, CPU profiles attribute samples to pipeline stages
// (`go tool pprof -tags`, label key gef_stage).
func EnableStageProfiling(on bool) { obs.SetPprofLabels(on) }

// MetricsRegistry is the process-wide metrics store (counters, gauges,
// fixed-bucket histograms) the pipeline instruments feed: P-IRLS
// iterations, GCV evaluations, SHAP node visits, PD forest evaluations,
// per-iteration boosting timings, sampling volumes.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a JSON-encodable point-in-time registry copy.
type MetricsSnapshot = obs.Snapshot

// PipelineMetrics returns the default registry all instrumentation
// writes to. Use Snapshot or WriteJSON for an expvar-style export.
func PipelineMetrics() *MetricsRegistry { return obs.Metrics() }

// WriteBenchReport writes the current metrics as a named,
// environment-stamped JSON snapshot — the shape the CLIs' -metrics-out
// flag writes.
func WriteBenchReport(path, name string) error { return obs.WriteBenchReport(path, name) }

// TelemetryHandler returns the operational HTTP surface over the
// process-wide registry and flight recorder: /metrics (Prometheus text
// exposition), /healthz (liveness JSON) and /flight (flight-recorder
// snapshot). Mount it on any mux, or serve it standalone — this is the
// surface an embedding explanation server exposes.
func TelemetryHandler() http.Handler { return obs.Handler() }

// FlightSnapshot is a consistent, gap-free copy of the always-on flight
// recorder: the most recent completed spans, span events, degradations
// and typed errors, with monotonic sequence numbers.
type FlightSnapshot = obs.FlightSnapshot

// CaptureFlight snapshots the process-wide flight recorder — the
// post-mortem ring the CLIs dump on errors and degradations.
func CaptureFlight() FlightSnapshot { return obs.Flight().Snapshot() }

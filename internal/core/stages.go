package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/robust"
	"gef/internal/sampling"
)

// stage is the unit of the engine's pipeline decomposition: a name (one
// of stats/featsel/domains/sample/interactions/fit), a deterministic
// cache key derived from the forest fingerprint plus exactly the config
// fields the stage reads, and the computation producing the stage's
// artifact.
//
// Key strings embed their upstream stage's full key rather than a hash
// of it, so distinct pipelines can never collide — at worst keys get
// long, and long keys are a few hundred bytes against multi-megabyte
// artifacts.
type stage struct {
	name string
	key  func(p *pipeline) string
	run  func(ctx context.Context, p *pipeline) (any, error)
}

// pipeline is the mutable state one Explain/AutoExplain call threads
// through the stages. Artifacts fetched from the cache are immutable;
// the pipeline copies anything it mutates (the feature list shrinks
// under the domain drop ladder) into its own fields.
type pipeline struct {
	eng *Engine
	f   *forest.Forest
	fp  string // forest fingerprint, the root of every cache key
	cfg Config // defaulted pipeline configuration

	stats    *forestStats
	ranking  []int // full gain-ordered feature ranking (featsel artifact)
	features []int // current F′, gain order; owned by the pipeline
	domains  *sampling.Domains
	domKey   string // domains-stage key (sample/interactions embed it)
	smpKey   string // sample-stage key (H-Stat interactions embed it)
	train    *dataset.Dataset
	test     *dataset.Dataset
	degr     []robust.Degradation
}

// newPipeline seals f — validation, fingerprint and flat compilation
// happen once per forest, not once per call — and starts a pipeline
// keyed by its stored fingerprint.
func (e *Engine) newPipeline(f *forest.Forest, cfg Config) (*pipeline, error) {
	if err := f.Seal(); err != nil {
		return nil, fmt.Errorf("gef: invalid forest: %w", err)
	}
	return &pipeline{eng: e, f: f, fp: f.Fingerprint(), cfg: cfg}, nil
}

// forestStats is the per-forest artifact every downstream stage reads:
// the threshold multisets (domains, spec construction), gain importances
// and used-feature set (feature ranking). One forest walk per
// fingerprint, however many explanations are derived from it.
type forestStats struct {
	thresholds map[int][]float64
	importance []float64
	used       []int
}

// domainsArtifact is the domains stage's output: the surviving features
// after the drop-feature ladder, their sampling domains, and the
// degradations the ladder recorded. Degradations ride in the artifact so
// a cache hit reports the same simplifications the original computation
// did.
type domainsArtifact struct {
	features []int
	domains  *sampling.Domains
	degr     []robust.Degradation
}

// sampleArtifact is the sampled D* train/test split.
type sampleArtifact struct {
	train, test *dataset.Dataset
}

// effSampling is the sampling config after the pipeline-level seed and
// categorical-threshold derivations ExplainCtx historically applied.
func (p *pipeline) effSampling() sampling.Config {
	smp := p.cfg.Sampling
	if smp.Seed == 0 {
		smp.Seed = p.cfg.Seed + 1
	}
	if smp.CategoricalThreshold == 0 {
		smp.CategoricalThreshold = p.cfg.CategoricalThreshold
	}
	return smp
}

// intsKey renders an int slice compactly for cache keys.
func intsKey(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// floatsKey renders a float slice for cache keys, element by fbits.
func floatsKey(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fbits(x))
	}
	return b.String()
}

// fbits renders a float for cache keys by bit pattern, so -0.0/0.0 and
// NaN payloads cannot alias distinct configurations.
func fbits(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

var stageStats = stage{
	name: "stats",
	key:  func(p *pipeline) string { return "st|" + p.fp },
	run: func(_ context.Context, p *pipeline) (any, error) {
		return &forestStats{
			thresholds: p.f.ThresholdsByFeature(),
			importance: p.f.GainImportance(),
			used:       p.f.UsedFeatures(),
		}, nil
	},
}

var stageFeatsel = stage{
	name: "featsel",
	key:  func(p *pipeline) string { return "fs|" + p.fp },
	run: func(ctx context.Context, p *pipeline) (any, error) {
		_, sp := obs.Start(ctx, "featsel.top_features")
		ranking := featsel.TopFeaturesRanked(p.stats.importance, p.stats.used, len(p.stats.used))
		sp.Set(obs.Int("selected", len(ranking)))
		sp.End()
		return ranking, nil
	},
}

var stageDomains = stage{
	name: "domains",
	key:  func(p *pipeline) string { return p.domKey },
	run: func(ctx context.Context, p *pipeline) (any, error) {
		smp := p.effSampling()
		// Work on a private copy: the drop ladder compacts the slice in
		// place, and p.features may alias the cached featsel ranking.
		features := append([]int(nil), p.features...)
		var degr []robust.Degradation
		d, err := sampling.BuildDomainsFromCtx(ctx, p.f.NumFeatures, p.stats.thresholds, features, smp)
		for err != nil {
			// A feature whose threshold set is empty or collapsed is
			// dropped from F′ (recording the degradation) and the domains
			// are rebuilt with the survivors; any other failure aborts.
			// The loop is bounded: every pass removes exactly one feature.
			var fe *robust.FeatureError
			if !errors.As(err, &fe) || !errors.Is(err, robust.ErrDegenerate) {
				return nil, robust.CtxErr(err)
			}
			kept := features[:0]
			for _, j := range features {
				if j != fe.Feature {
					kept = append(kept, j)
				}
			}
			features = kept
			if len(features) == 0 {
				return nil, fmt.Errorf("gef: every selected feature has a degenerate sampling domain: %w", err)
			}
			robust.Record(ctx, &degr, robust.Degradation{
				Stage:  "sampling",
				Action: robust.ActionDropFeature,
				Reason: fe.Err.Error(),
				Detail: fmt.Sprintf("feature %d dropped from F′", fe.Feature),
			})
			d, err = sampling.BuildDomainsFromCtx(ctx, p.f.NumFeatures, p.stats.thresholds, features, smp)
		}
		return &domainsArtifact{features: features, domains: d, degr: degr}, nil
	},
}

var stageSample = stage{
	name: "sample",
	key:  func(p *pipeline) string { return p.smpKey },
	run: func(ctx context.Context, p *pipeline) (any, error) {
		dstar, err := sampling.GenerateCtx(ctx, p.f, p.domains, p.cfg.NumSamples, p.cfg.Seed+2)
		if err != nil {
			return nil, robust.CtxErr(err)
		}
		train, test := dstar.Split(p.cfg.TestFraction, p.cfg.Seed+3)
		return &sampleArtifact{train: train, test: test}, nil
	},
}

var stageInteractions = stage{
	name: "interactions",
	key: func(p *pipeline) string {
		k := "ix|" + p.fp + "|f=" + intsKey(p.features) + "|s=" + string(p.cfg.InteractionStrategy)
		if p.cfg.InteractionStrategy == featsel.HStat {
			// The H statistic reads a D* subsample, so the ranking depends
			// on the sample stage's identity and the clamped sample size.
			n := p.cfg.HStatSample
			if n > len(p.train.X) {
				n = len(p.train.X)
			}
			k += "|h=" + strconv.Itoa(n) + "|" + p.smpKey
		}
		return k
	},
	run: func(ctx context.Context, p *pipeline) (any, error) {
		var sample [][]float64
		if p.cfg.InteractionStrategy == featsel.HStat {
			n := p.cfg.HStatSample
			if n > len(p.train.X) {
				n = len(p.train.X)
			}
			sample = p.train.X[:n]
		}
		pairs, err := featsel.RankInteractionsCtx(ctx, p.f, p.features, p.cfg.InteractionStrategy, sample)
		if err != nil {
			return nil, robust.CtxErr(err)
		}
		return pairs, nil
	},
}

// selectFeatures runs the stats and featsel stages and sets p.features
// to the top-k prefix of the gain ranking (a fresh copy the pipeline
// owns). An empty result means the forest has no split nodes; callers
// keep their historical error messages for that case.
func (p *pipeline) selectFeatures(ctx context.Context, k int) error {
	v, err := p.eng.runStage(ctx, p, stageStats)
	if err != nil {
		return err
	}
	p.stats = v.(*forestStats)
	v, err = p.eng.runStage(ctx, p, stageFeatsel)
	if err != nil {
		return err
	}
	p.ranking = v.([]int)
	if k > len(p.ranking) {
		k = len(p.ranking)
	}
	if k < 0 {
		k = 0
	}
	p.features = append([]int(nil), p.ranking[:k]...)
	return nil
}

// buildDomains runs the domains stage (with the drop-feature ladder)
// and applies its artifact: the surviving features replace p.features
// and the ladder's degradations are appended to the pipeline's record.
func (p *pipeline) buildDomains(ctx context.Context) error {
	smp := p.effSampling()
	p.domKey = "dm|" + p.fp + "|f=" + intsKey(p.features) +
		"|s=" + string(smp.Strategy) + "|k=" + strconv.Itoa(smp.K) +
		"|eps=" + fbits(smp.Epsilon) + "|seed=" + strconv.FormatInt(smp.Seed, 10) +
		"|cat=" + strconv.Itoa(smp.CategoricalThreshold)
	v, err := p.eng.runStage(ctx, p, stageDomains)
	if err != nil {
		return err
	}
	art := v.(*domainsArtifact)
	p.features = append([]int(nil), art.features...)
	p.domains = art.domains
	p.degr = append(p.degr, art.degr...)
	return nil
}

// buildSample runs the sample stage and applies the D* split.
func (p *pipeline) buildSample(ctx context.Context) error {
	p.smpKey = "sm|" + p.domKey + "|n=" + strconv.Itoa(p.cfg.NumSamples) +
		"|seed=" + strconv.FormatInt(p.cfg.Seed, 10) +
		"|tf=" + fbits(p.cfg.TestFraction)
	v, err := p.eng.runStage(ctx, p, stageSample)
	if err != nil {
		return err
	}
	art := v.(*sampleArtifact)
	p.train, p.test = art.train, art.test
	return nil
}

// rankInteractions runs the interactions stage and returns the full
// ranked pair list (shared with the cache — callers copy on truncate).
func (p *pipeline) rankInteractions(ctx context.Context) ([]featsel.Pair, error) {
	v, err := p.eng.runStage(ctx, p, stageInteractions)
	if err != nil {
		return nil, err
	}
	return v.([]featsel.Pair), nil
}

// Package sampling implements §3.3 of the paper: building per-feature
// sampling domains from a forest's split thresholds and generating the
// synthetic training set D* on which the explanation GAM is fitted.
//
// Six strategies are provided: the five of the paper — All-Thresholds
// (threshold midpoints, the Cohen et al. baseline), K-Quantile,
// Equi-Width, K-Means and Equi-Size — plus continuous Random sampling
// over the extended threshold range, which the paper describes as the
// generic fallback.
package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
	"gef/internal/stats"
)

// Metrics instruments, hoisted so hot paths skip the registry lookup.
// Counters are labeled by domain strategy —
// sampling.rows_generated{strategy="equi-size"} — so strategy sweeps
// show up as distinct scrape series.
var (
	mDomainPoints = obs.Metrics().CounterVec("sampling.domain_points", "strategy")
	mDomainSize   = obs.Metrics().Histogram("sampling.domain_size")
	mRows         = obs.Metrics().CounterVec("sampling.rows_generated", "strategy")
	mForestEvals  = obs.Metrics().Counter("sampling.forest_evals")
)

// Strategy selects how a feature's sampling domain is derived from its
// split thresholds.
type Strategy string

const (
	// AllThresholds uses the midpoints of consecutive distinct thresholds
	// plus the ε-extended extremes (equivalent to Cohen et al. [5]).
	AllThresholds Strategy = "all-thresholds"
	// KQuantile uses the K quantiles of the threshold multiset, following
	// the threshold density.
	KQuantile Strategy = "k-quantile"
	// EquiWidth uses K evenly spaced points across the ε-extended
	// threshold range, ignoring threshold density.
	EquiWidth Strategy = "equi-width"
	// KMeans uses the centroids of a 1-D k-means clustering of the
	// thresholds (k = min(K, distinct thresholds)).
	KMeans Strategy = "k-means"
	// EquiSize splits the sorted threshold list into K contiguous
	// equal-size runs and uses each run's mean.
	EquiSize Strategy = "equi-size"
	// Random samples continuously and uniformly over the ε-extended
	// threshold range instead of a discrete domain.
	Random Strategy = "random"
)

// Strategies lists the discrete-domain strategies compared in the paper's
// Figs. 5 and 8, in presentation order.
var Strategies = []Strategy{AllThresholds, KQuantile, EquiWidth, KMeans, EquiSize}

// Config controls domain construction.
type Config struct {
	Strategy Strategy
	K        int     // points per feature (ignored by AllThresholds)
	Epsilon  float64 // relative range extension; default 0.05 (the paper's ε)
	Seed     int64   // drives k-means initialization
	// CategoricalThreshold, when > 0, forces the All-Thresholds domain
	// for any feature with fewer distinct thresholds than this, whatever
	// the strategy: the forest's response is constant within threshold
	// cells, so K-point domains on a categorical-like feature only
	// multiply distinct values (and would blow up factor-term sizes)
	// without adding information. GEF passes its L here (paper §3.5).
	CategoricalThreshold int
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	return c
}

// Domains holds the per-feature sampling domains for the selected feature
// subset F′, plus the fill values used for unselected features when
// querying the forest (the forest still expects full-width inputs).
type Domains struct {
	NumFeatures int                // full input width
	Features    []int              // selected features F′, ascending
	Points      map[int][]float64  // discrete candidate values per selected feature
	Ranges      map[int][2]float64 // continuous [lo,hi] per selected feature (Random strategy)
	Fill        []float64          // default value per feature (threshold median)
	Strategy    Strategy
}

// BuildDomains derives sampling domains for the selected features from the
// forest's split thresholds using the configured strategy. Every selected
// feature must occur in at least one split predicate.
func BuildDomains(f *forest.Forest, selected []int, cfg Config) (*Domains, error) {
	return BuildDomainsCtx(context.Background(), f, selected, cfg)
}

// BuildDomainsCtx is BuildDomains under an obs span recording the
// strategy, feature count and resulting domain sizes.
func BuildDomainsCtx(ctx context.Context, f *forest.Forest, selected []int, cfg Config) (*Domains, error) {
	return BuildDomainsFromCtx(ctx, f.NumFeatures, f.ThresholdsByFeature(), selected, cfg)
}

// BuildDomainsFromCtx is BuildDomainsCtx over a precomputed threshold map
// (forest.ThresholdsByFeature): numFeatures is the forest's input width
// and thresholds its per-feature sorted split-threshold multisets. The
// engine caches the threshold map per forest fingerprint, so repeated
// domain constructions — AutoExplain candidates, sampling-strategy sweeps
// — skip the forest walk. The map is read, never mutated.
func BuildDomainsFromCtx(ctx context.Context, numFeatures int, thresholds map[int][]float64, selected []int, cfg Config) (*Domains, error) {
	_, sp := obs.Start(ctx, "sampling.build_domains",
		obs.Str("strategy", string(cfg.Strategy)),
		obs.Int("features", len(selected)),
		obs.Int("k", cfg.K))
	defer sp.End()
	d, err := buildDomains(numFeatures, thresholds, selected, cfg)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, j := range d.Features {
		n := len(d.Points[j])
		total += n
		mDomainSize.Observe(float64(n))
	}
	mDomainPoints.With(string(d.Strategy)).Add(int64(total))
	sp.Set(obs.Int("total_points", total))
	return d, nil
}

func buildDomains(numFeatures int, thresholds map[int][]float64, selected []int, cfg Config) (*Domains, error) {
	cfg = cfg.withDefaults()
	if cfg.Strategy != AllThresholds && cfg.Strategy != Random && cfg.K < 1 {
		return nil, fmt.Errorf("sampling: strategy %q requires K ≥ 1, got %d: %w", cfg.Strategy, cfg.K, robust.ErrConfig)
	}
	if math.IsNaN(cfg.Epsilon) || cfg.Epsilon < 0 {
		return nil, fmt.Errorf("sampling: Epsilon = %v is not a non-negative number: %w", cfg.Epsilon, robust.ErrConfig)
	}
	d := &Domains{
		NumFeatures: numFeatures,
		Features:    append([]int(nil), selected...),
		Points:      make(map[int][]float64),
		Ranges:      make(map[int][2]float64),
		Fill:        make([]float64, numFeatures),
		Strategy:    cfg.Strategy,
	}
	sort.Ints(d.Features)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for j := 0; j < numFeatures; j++ {
		if v := thresholds[j]; len(v) > 0 {
			d.Fill[j] = stats.QuantileSorted(v, 0.5)
		}
	}
	for _, j := range d.Features {
		v := thresholds[j]
		if len(v) == 0 {
			return nil, fmt.Errorf("sampling: %w", &robust.FeatureError{
				Feature: j,
				Err:     fmt.Errorf("no split thresholds in the forest: %w", robust.ErrDegenerate),
			})
		}
		if robust.Fire(robust.SiteDomains, j, 0) {
			return nil, fmt.Errorf("sampling: %w", &robust.FeatureError{
				Feature: j,
				Err:     fmt.Errorf("injected domain collapse: %w", robust.ErrDegenerate),
			})
		}
		lo, hi := extendedRange(v, cfg.Epsilon)
		d.Ranges[j] = [2]float64{lo, hi}
		eff := cfg
		if cfg.CategoricalThreshold > 0 && cfg.Strategy != Random &&
			len(dedupeSorted(v)) < cfg.CategoricalThreshold {
			eff.Strategy = AllThresholds
		}
		pts, err := domainPoints(eff, v, lo, hi, rng)
		if err != nil {
			return nil, fmt.Errorf("sampling: feature %d: %w", j, err)
		}
		// A selected feature must actually vary in D*: strategies that
		// collapse onto fewer than two distinct points (e.g. K-Quantile on
		// a one-hot feature whose only threshold is 0.5) fall back to the
		// All-Thresholds domain, which always straddles every split.
		if cfg.Strategy != Random && len(dedupeSorted(sortedCopy(pts))) < 2 {
			pts = allThresholdPoints(v, lo, hi)
		}
		// Defense in depth behind the fallback: a domain with fewer than
		// two distinct points cannot make the feature vary in D*, so the
		// caller must drop the feature, not fit through it.
		if cfg.Strategy != Random {
			if n := len(dedupeSorted(sortedCopy(pts))); n < 2 {
				return nil, fmt.Errorf("sampling: %w", &robust.FeatureError{
					Feature: j,
					Err:     fmt.Errorf("sampling domain collapsed to %d distinct points: %w", n, robust.ErrDegenerate),
				})
			}
		}
		d.Points[j] = pts
	}
	return d, nil
}

// extendedRange returns [v₁−ε, v_t+ε] with ε = rel·(v_t−v₁), falling back
// to an absolute extension when all thresholds coincide.
func extendedRange(sorted []float64, rel float64) (lo, hi float64) {
	v1, vt := sorted[0], sorted[len(sorted)-1]
	eps := rel * (vt - v1)
	if eps == 0 {
		eps = rel * math.Max(1, math.Abs(v1))
	}
	return v1 - eps, vt + eps
}

// domainPoints computes the discrete candidate values for one feature.
func domainPoints(cfg Config, sorted []float64, lo, hi float64, rng *rand.Rand) ([]float64, error) {
	switch cfg.Strategy {
	case Random:
		return nil, nil // continuous: no discrete points
	case AllThresholds:
		return allThresholdPoints(sorted, lo, hi), nil
	case KQuantile:
		return dedupeSorted(quantilePoints(sorted, cfg.K)), nil
	case EquiWidth:
		return equiWidthPoints(lo, hi, cfg.K), nil
	case KMeans:
		return stats.KMeans1D(sorted, cfg.K, rng), nil
	case EquiSize:
		return dedupeSorted(equiSizePoints(sorted, cfg.K)), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", cfg.Strategy)
	}
}

// allThresholdPoints returns midpoints between consecutive distinct
// thresholds plus the extended extremes.
func allThresholdPoints(sorted []float64, lo, hi float64) []float64 {
	distinct := dedupeSorted(sorted)
	pts := make([]float64, 0, len(distinct)+1)
	pts = append(pts, lo)
	for i := 0; i+1 < len(distinct); i++ {
		pts = append(pts, (distinct[i]+distinct[i+1])/2)
	}
	pts = append(pts, hi)
	return pts
}

// quantilePoints returns the K quantiles of the threshold multiset at
// levels j/(K−1) (single point: the median).
func quantilePoints(sorted []float64, k int) []float64 {
	if k == 1 {
		return []float64{stats.QuantileSorted(sorted, 0.5)}
	}
	pts := make([]float64, k)
	for j := 0; j < k; j++ {
		pts[j] = stats.QuantileSorted(sorted, float64(j)/float64(k-1))
	}
	return pts
}

// equiWidthPoints returns K evenly spaced points over [lo, hi].
func equiWidthPoints(lo, hi float64, k int) []float64 {
	if k == 1 {
		return []float64{(lo + hi) / 2}
	}
	pts := make([]float64, k)
	step := (hi - lo) / float64(k-1)
	for j := 0; j < k; j++ {
		pts[j] = lo + float64(j)*step
	}
	return pts
}

// equiSizePoints splits the sorted threshold list into K contiguous runs
// of (nearly) equal size and returns each run's mean.
func equiSizePoints(sorted []float64, k int) []float64 {
	n := len(sorted)
	if k > n {
		k = n
	}
	pts := make([]float64, 0, k)
	for j := 0; j < k; j++ {
		start := j * n / k
		end := (j + 1) * n / k
		if end == start {
			continue
		}
		var s float64
		for _, v := range sorted[start:end] {
			s += v
		}
		pts = append(pts, s/float64(end-start))
	}
	return pts
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func dedupeSorted(sorted []float64) []float64 {
	out := make([]float64, 0, len(sorted))
	for i, v := range sorted {
		//lint:ignore floatcmp dedupe of sorted thresholds; duplicates are bit-identical copies
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// DomainSize returns the number of candidate points for feature j
// (0 for the continuous Random strategy).
func (d *Domains) DomainSize(j int) int { return len(d.Points[j]) }

// SampleRow fills the full-width input row x (len NumFeatures): selected
// features draw uniformly from their domains (or ranges for Random),
// unselected features take their fill value.
//
//lint:ignore obsspan per-row hot path; the enclosing GenerateCtx span covers the batch
func (d *Domains) SampleRow(x []float64, rng *rand.Rand) {
	copy(x, d.Fill)
	for _, j := range d.Features {
		if d.Strategy == Random {
			r := d.Ranges[j]
			x[j] = r[0] + rng.Float64()*(r[1]-r[0])
		} else {
			pts := d.Points[j]
			x[j] = pts[rng.Intn(len(pts))]
		}
	}
}

// Generate builds the synthetic dataset D*: n rows sampled from the
// domains, labelled by the forest's predictions (probabilities for
// binary-logistic forests, raw scores otherwise). This is the complete
// step (i) of the GEF framework.
func Generate(f *forest.Forest, d *Domains, n int, seed int64) *dataset.Dataset {
	//lint:ignore errdrop background context cannot be canceled
	ds, _ := GenerateCtx(context.Background(), f, d, n, seed)
	return ds
}

// GenerateCtx is Generate under an obs span; every generated row costs
// one forest evaluation, counted in sampling.forest_evals. Row sampling
// draws from one sequential RNG stream (so D*'s inputs are identical
// for a given seed regardless of parallelism) into one n × NumFeatures
// slab, each row a capped slice of it. Labeling — the expensive part —
// runs through the sealed forest's Flat specialized to D*'s subspace
// (Flat.Specialize over d.Features and d.Fill): every split on a
// feature held at its fill value is resolved once, before the walk, so
// each row visits only the nodes F′ decides, and labels are bitwise
// what the full forest gives. The specialized Flat is built per call
// and dropped with it; the span's nodes and specialized_nodes
// attributes record what it saved. The batch kernels run in parallel
// over fixed row chunks with disjoint writes, hence bit-identical at
// any worker count, and the caller's ctx threads into the traversal, so
// deadlines cancel the labeling itself. Returns ctx.Err() if canceled.
func GenerateCtx(ctx context.Context, f *forest.Forest, d *Domains, n int, seed int64) (*dataset.Dataset, error) {
	_, sp := obs.Start(ctx, "sampling.generate",
		obs.Int("rows", n), obs.Str("strategy", string(d.Strategy)),
		obs.Int("workers", par.Workers()))
	defer sp.End()
	mRows.With(string(d.Strategy)).Add(int64(n))
	mForestEvals.Add(int64(n))
	rng := rand.New(rand.NewSource(seed))
	task := dataset.Regression
	if f.Objective == forest.BinaryLogistic {
		task = dataset.Classification
	}
	ds := &dataset.Dataset{
		X:            make([][]float64, n),
		FeatureNames: f.FeatureNames,
		Task:         task,
	}
	nf := d.NumFeatures
	slab := make([]float64, n*nf)
	for i := range ds.X {
		ds.X[i] = slab[i*nf : (i+1)*nf : (i+1)*nf]
		d.SampleRow(ds.X[i], rng)
	}
	full := f.Flat()
	fl := full.Specialize(d.Features, d.Fill)
	sp.Set(obs.Int("nodes", full.NumNodes()), obs.Int("specialized_nodes", fl.NumNodes()))
	ys, err := fl.PredictBatchCtx(ctx, ds.X)
	if err != nil {
		return nil, err
	}
	ds.Y = ys
	return ds, nil
}

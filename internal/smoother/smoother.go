// Package smoother implements the forest-guided kernel-smoother
// surrogate family (Verdinelli & Wasserman, "Forest Guided Smoothing",
// see PAPERS.md): a Nadaraya–Watson regression over a dictionary of
// forest-labeled points, with per-feature adaptive bandwidths estimated
// from tree co-leaf proximities. Two points the forest routes to the
// same leaves are "close" in the forest's own geometry; the typical
// per-feature distance between such proximate pairs is the right local
// bandwidth, so the smoother inherits the forest's anisotropy instead
// of guessing it from marginal spreads.
//
// Leaf assignments come from the flat-forest LeavesBatch kernels, and
// both the proximity scan and the per-row predictions are parallelized
// with internal/par under the bitwise-determinism contract. Unlike the
// rule family the fitted model is fully serializable: the dictionary,
// labels and bandwidths reconstruct an identical predictor.
package smoother

import (
	"context"
	"fmt"
	"math"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
	"gef/internal/stats"
)

// Config controls the smoother fit.
type Config struct {
	// DictSize bounds the dictionary (default 512 rows drawn from the
	// head of the shuffled D* train split). Larger is smoother but
	// linearly slower to evaluate.
	DictSize int
	// ProximitySample bounds the rows whose pairwise tree proximities
	// drive bandwidth estimation (default 256; the scan is quadratic).
	ProximitySample int
	// ProximityThreshold is the fraction of trees two rows must share a
	// leaf in to count as proximate (default 0.5).
	ProximityThreshold float64
	// BandwidthScale multiplies every estimated bandwidth (default 1).
	BandwidthScale float64
}

// WithDefaults fills zero knobs with the package defaults. Idempotent;
// exported so the engine can derive cache keys from the effective
// configuration rather than the raw one.
func (c Config) WithDefaults() Config {
	if c.DictSize == 0 {
		c.DictSize = 512
	}
	if c.ProximitySample == 0 {
		c.ProximitySample = 256
	}
	if c.ProximityThreshold == 0 {
		c.ProximityThreshold = 0.5
	}
	if c.BandwidthScale == 0 {
		c.BandwidthScale = 1
	}
	return c
}

// Payload is the serialized form of a fitted smoother: everything the
// predictor needs, so a reloaded model predicts bitwise identically.
type Payload struct {
	// Features are the modelled features F′ (dictionary column order).
	Features []int `json:"features"`
	// Dict holds the dictionary rows projected to Features.
	Dict [][]float64 `json:"dict"`
	// Y are the forest responses at the dictionary rows.
	Y []float64 `json:"y"`
	// Bandwidths has one entry per feature; 0 marks a degenerate
	// (constant) feature the kernel ignores.
	Bandwidths []float64 `json:"bandwidths"`
	// ProximityPairs counts the proximate pairs behind the estimate
	// (diagnostic; 0 means every bandwidth fell back to Silverman).
	ProximityPairs int `json:"proximity_pairs"`
}

// Model is a fitted Nadaraya–Watson smoother over forest geometry.
type Model struct {
	p Payload
}

// Fit estimates bandwidths from tree co-leaf proximities on a bounded
// sample of train, builds the dictionary from the head of train, and
// returns the smoother. It fails with robust.ErrNumerical when every
// selected feature is degenerate (no usable bandwidth) — the family
// ladder falls back to a simpler surrogate in that case.
func Fit(ctx context.Context, f *forest.Forest, features []int, train *dataset.Dataset, cfg Config) (*Model, error) {
	cfg = cfg.WithDefaults()
	if train == nil || len(train.X) < 2 {
		return nil, fmt.Errorf("smoother: need ≥ 2 fitting rows, got %d: %w", trainRows(train), robust.ErrDegenerate)
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("smoother: no features selected: %w", robust.ErrDegenerate)
	}
	ctx, sp := obs.Start(ctx, "smoother.fit",
		obs.Int("features", len(features)), obs.Int("train_rows", len(train.X)))
	defer sp.End()

	fl := f.Flat()
	n := min(cfg.ProximitySample, len(train.X))
	sample := train.X[:n]
	leaves := make([]int32, n*fl.NumTrees)
	fl.LeavesBatch(sample, leaves)

	pairs, err := proximatePairs(ctx, leaves, n, fl.NumTrees, cfg.ProximityThreshold)
	if err != nil {
		return nil, robust.CtxErr(err)
	}

	// Per-feature bandwidths: the mean |Δ_j| over proximate pairs, with
	// a Silverman fallback when no pairs (or a collapsed spread) leave
	// nothing to average. Features are independent, so par chunking is
	// bitwise identical to a serial loop.
	bw := make([]float64, len(features))
	if err := par.For(ctx, len(features), 0, func(_, lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			j := features[fi]
			sum, cnt := 0.0, 0
			for _, pr := range pairs {
				d := math.Abs(sample[pr[0]][j] - sample[pr[1]][j])
				sum += d
				cnt++
			}
			h := 0.0
			if cnt > 0 {
				h = sum / float64(cnt)
			}
			if h == 0 {
				h = silverman(train, j, n)
			}
			bw[fi] = h * cfg.BandwidthScale
		}
	}); err != nil {
		return nil, robust.CtxErr(err)
	}
	usable := 0
	for _, h := range bw {
		if h > 0 && !math.IsNaN(h) && !math.IsInf(h, 0) {
			usable++
		}
	}
	if usable == 0 {
		return nil, fmt.Errorf("smoother: every selected feature has a degenerate bandwidth: %w", robust.ErrNumerical)
	}
	for i, h := range bw {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			bw[i] = 0 // kernel ignores the feature; 0 survives JSON, ±Inf would not
		}
	}

	m := min(cfg.DictSize, len(train.X))
	p := Payload{
		Features:       append([]int(nil), features...),
		Dict:           make([][]float64, m),
		Y:              append([]float64(nil), train.Y[:m]...),
		Bandwidths:     bw,
		ProximityPairs: len(pairs),
	}
	for i := 0; i < m; i++ {
		row := make([]float64, len(features))
		for fi, j := range features {
			row[fi] = train.X[i][j]
		}
		p.Dict[i] = row
	}
	sp.Set(obs.Int("dict_rows", m), obs.Int("proximity_pairs", len(pairs)),
		obs.Int("usable_bandwidths", usable))
	return &Model{p: p}, nil
}

func trainRows(d *dataset.Dataset) int {
	if d == nil {
		return 0
	}
	return len(d.X)
}

// proximatePairs scans all row pairs and keeps those sharing a leaf in
// at least threshold of the trees. The scan fans the outer row over
// internal/par and concatenates per-chunk pair lists in chunk order, so
// the result is identical at any worker count.
func proximatePairs(ctx context.Context, leaves []int32, n, trees int, threshold float64) ([][2]int, error) {
	need := int(math.Ceil(threshold * float64(trees)))
	if need < 1 {
		need = 1
	}
	return par.MapReduce(ctx, n, 0, func(_, lo, hi int) [][2]int {
		var out [][2]int
		for i := lo; i < hi; i++ {
			li := leaves[i*trees : (i+1)*trees]
			for k := i + 1; k < n; k++ {
				lk := leaves[k*trees : (k+1)*trees]
				shared := 0
				for t := 0; t < trees; t++ {
					if li[t] == lk[t] {
						shared++
					}
				}
				if shared >= need {
					out = append(out, [2]int{i, k})
				}
			}
		}
		return out
	}, func(a, b [][2]int) [][2]int { return append(a, b...) })
}

// silverman is the classical rule-of-thumb bandwidth 1.06·σ·n^(−1/5)
// over the full train column — the fallback when forest proximities
// give no signal for a feature.
func silverman(train *dataset.Dataset, j, n int) float64 {
	col := make([]float64, len(train.X))
	for i, row := range train.X {
		col[i] = row[j]
	}
	return 1.06 * stats.StdDev(col) * math.Pow(float64(n), -0.2)
}

// FromPayload reconstructs a model serialized via Payload(); the result
// predicts bitwise identically to the fitted original.
func FromPayload(p Payload) (*Model, error) {
	if len(p.Dict) == 0 || len(p.Dict) != len(p.Y) || len(p.Features) != len(p.Bandwidths) {
		return nil, fmt.Errorf("smoother: inconsistent payload (%d dict rows, %d labels, %d features, %d bandwidths)",
			len(p.Dict), len(p.Y), len(p.Features), len(p.Bandwidths))
	}
	return &Model{p: p}, nil
}

// Payload returns the serializable model state.
func (m *Model) Payload() Payload { return m.p }

// Features returns the modelled feature set F′.
func (m *Model) Features() []int { return m.p.Features }

// Bandwidths returns the per-feature kernel bandwidths (aligned with
// Features; 0 marks an ignored degenerate feature).
func (m *Model) Bandwidths() []float64 { return m.p.Bandwidths }

// Predict evaluates the Nadaraya–Watson estimate at x (full-width input
// row; only the modelled features are read). Log-domain weights with a
// running max keep the kernel stable far from the dictionary: the
// nearest point always gets weight 1, so the estimate degrades to
// nearest-dictionary-neighbour instead of 0/0.
func (m *Model) Predict(x []float64) float64 {
	logw := make([]float64, len(m.p.Dict))
	maxw := math.Inf(-1)
	for i, d := range m.p.Dict {
		s := 0.0
		for fi, j := range m.p.Features {
			h := m.p.Bandwidths[fi]
			if h == 0 {
				continue
			}
			z := (x[j] - d[fi]) / h
			s += z * z
		}
		logw[i] = -0.5 * s
		if logw[i] > maxw {
			maxw = logw[i]
		}
	}
	num, den := 0.0, 0.0
	for i, lw := range logw {
		w := math.Exp(lw - maxw)
		num += w * m.p.Y[i]
		den += w
	}
	return num / den
}

// PredictBatch evaluates every row, parallelized over rows with the
// bitwise-determinism contract.
func (m *Model) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	out := make([]float64, len(xs))
	if err := par.For(ctx, len(xs), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Predict(xs[i])
		}
	}); err != nil {
		return nil, robust.CtxErr(err)
	}
	return out, nil
}

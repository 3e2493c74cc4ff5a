package gbdt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/stats"
)

// Metrics instruments (hoisted; see internal/obs). Per-iteration wall
// times are split into tree growth (histogram build + split search) and
// the whole iteration (gradients + growth + score update + loss).
var (
	mTreesGrown = obs.Metrics().Counter("gbdt.trees_grown")
	mIterMs     = obs.Metrics().Histogram("gbdt.iteration_ms")
	mGrowMs     = obs.Metrics().Histogram("gbdt.grow_tree_ms")
	mTrainLoss  = obs.Metrics().Gauge("gbdt.final_train_loss")
	mEarlyStops = obs.Metrics().Counter("gbdt.early_stops")
)

// Params configures GBDT training. Zero values are replaced by defaults
// (see withDefaults) so callers may set only what they care about.
type Params struct {
	NumTrees            int              // boosting rounds (default 100)
	NumLeaves           int              // max leaves per tree (default 31)
	LearningRate        float64          // shrinkage (default 0.1)
	MinSamplesLeaf      int              // min rows per leaf (default 20)
	MinGain             float64          // min loss reduction to split (default 0)
	Lambda              float64          // L2 leaf regularization (default 1)
	MaxBins             int              // histogram bins per feature (default 255)
	Objective           forest.Objective // default Regression
	EarlyStoppingRounds int              // 0 disables early stopping
	Seed                int64            // drives row/column subsampling
	FeatureFraction     float64          // per-tree column subsample in (0,1] (default 1)
	BaggingFraction     float64          // per-tree row subsample in (0,1] (default 1)
}

func (p Params) withDefaults() Params {
	if p.NumTrees == 0 {
		p.NumTrees = 100
	}
	if p.NumLeaves == 0 {
		p.NumLeaves = 31
	}
	if p.LearningRate == 0 {
		p.LearningRate = 0.1
	}
	if p.MinSamplesLeaf == 0 {
		p.MinSamplesLeaf = 20
	}
	if p.Lambda == 0 {
		p.Lambda = 1
	}
	if p.MaxBins == 0 {
		p.MaxBins = 255
	}
	if p.Objective == "" {
		p.Objective = forest.Regression
	}
	if p.FeatureFraction == 0 {
		p.FeatureFraction = 1
	}
	if p.BaggingFraction == 0 {
		p.BaggingFraction = 1
	}
	return p
}

func (p Params) validate() error {
	switch {
	case p.NumTrees < 1:
		return fmt.Errorf("gbdt: NumTrees = %d, want ≥ 1", p.NumTrees)
	case p.NumLeaves < 2:
		return fmt.Errorf("gbdt: NumLeaves = %d, want ≥ 2", p.NumLeaves)
	case p.LearningRate <= 0:
		return fmt.Errorf("gbdt: LearningRate = %v, want > 0", p.LearningRate)
	case p.MaxBins < 2:
		return fmt.Errorf("gbdt: MaxBins = %d, want ≥ 2", p.MaxBins)
	case p.FeatureFraction <= 0 || p.FeatureFraction > 1:
		return fmt.Errorf("gbdt: FeatureFraction = %v, want (0,1]", p.FeatureFraction)
	case p.BaggingFraction <= 0 || p.BaggingFraction > 1:
		return fmt.Errorf("gbdt: BaggingFraction = %v, want (0,1]", p.BaggingFraction)
	case p.Objective != forest.Regression && p.Objective != forest.BinaryLogistic:
		return fmt.Errorf("gbdt: unsupported objective %q", p.Objective)
	}
	return nil
}

// Report records per-iteration losses from a training run.
type Report struct {
	TrainLoss     []float64 // per-iteration training loss
	ValidLoss     []float64 // per-iteration validation loss (nil without a valid set)
	BestIteration int       // iteration with the lowest validation loss
	Stopped       bool      // true if early stopping fired
}

// Train fits a GBDT forest on ds with no validation set (and therefore no
// early stopping).
func Train(ds *dataset.Dataset, p Params) (*forest.Forest, error) {
	f, _, err := TrainValid(ds, nil, p)
	return f, err
}

// TrainValid fits a GBDT forest on train, evaluating each round on valid
// when it is non-nil. With EarlyStoppingRounds > 0 and a validation set,
// training stops after that many rounds without improvement and the forest
// is truncated to its best iteration.
func TrainValid(train, valid *dataset.Dataset, p Params) (*forest.Forest, *Report, error) {
	return TrainValidCtx(context.Background(), train, valid, p)
}

// TrainValidCtx is TrainValid under an obs span recording the training
// shape; per-iteration timings land in the gbdt.* histograms and an
// early-stop decision is emitted as a span event.
func TrainValidCtx(ctx context.Context, train, valid *dataset.Dataset, p Params) (*forest.Forest, *Report, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	if err := train.Validate(); err != nil {
		return nil, nil, fmt.Errorf("gbdt: invalid training set: %w", err)
	}
	if train.NumRows() == 0 {
		return nil, nil, fmt.Errorf("gbdt: empty training set")
	}
	if p.Objective == forest.BinaryLogistic {
		for _, y := range train.Y {
			//lint:ignore floatcmp binary labels must be exactly 0 or 1; anything else is a data error
			if y != 0 && y != 1 {
				return nil, nil, fmt.Errorf("gbdt: binary objective requires targets in {0,1}, found %v", y)
			}
		}
	}

	n := train.NumRows()
	numFeat := train.NumFeatures()
	_, sp := obs.Start(ctx, "gbdt.train",
		obs.Int("rows", n),
		obs.Int("features", numFeat),
		obs.Int("num_trees", p.NumTrees),
		obs.Int("num_leaves", p.NumLeaves),
		obs.Str("objective", string(p.Objective)),
		obs.Int("workers", par.Workers()))
	defer sp.End()
	bd := binDataset(train.X, numFeat, p.MaxBins)

	base := baseScore(train.Y, p.Objective)
	f := &forest.Forest{
		NumFeatures:  numFeat,
		BaseScore:    base,
		Objective:    p.Objective,
		FeatureNames: train.FeatureNames,
	}

	raw := make([]float64, n) // raw score per training row
	for i := range raw {
		raw[i] = base
	}
	var rawValid []float64
	if valid != nil {
		rawValid = make([]float64, valid.NumRows())
		for i := range rawValid {
			rawValid[i] = base
		}
	}

	grad := make([]float64, n)
	hess := make([]float64, n)
	allRows := make([]int, n)
	for i := range allRows {
		allRows[i] = i
	}
	allFeatures := make([]int, numFeat)
	for i := range allFeatures {
		allFeatures[i] = i
	}

	gp := growParams{
		numLeaves:      p.NumLeaves,
		minSamplesLeaf: p.MinSamplesLeaf,
		minGain:        p.MinGain,
		lambda:         p.Lambda,
		learningRate:   p.LearningRate,
	}

	rep := &Report{BestIteration: -1}
	bestValid := math.Inf(1)
	for iter := 0; iter < p.NumTrees; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		iterStart := time.Now()
		computeGradients(p.Objective, raw, train.Y, grad, hess)

		// Row/column subsampling draws from per-iteration RNG streams
		// derived by par.SplitSeed, so iteration i's draws are a pure
		// function of (Seed, i): no draw in one iteration can shift
		// another's sequence, whatever order or parallelism they run in.
		rows := allRows
		if p.BaggingFraction < 1 {
			rows = sampleRows(par.SplitSeed(p.Seed, 2*iter), n, p.BaggingFraction)
		}
		feats := allFeatures
		if p.FeatureFraction < 1 {
			feats = sampleFeatures(par.SplitSeed(p.Seed, 2*iter+1), numFeat, p.FeatureFraction)
		}

		growStart := time.Now()
		tree := growTree(bd, grad, hess, rows, feats, gp)
		mGrowMs.Observe(float64(time.Since(growStart)) / float64(time.Millisecond))
		mTreesGrown.Inc()
		f.Trees = append(f.Trees, tree)

		// Incremental raw-score update on train and valid through the
		// newly grown tree's flat compilation (O(nodes) to build, then a
		// batched structure-of-arrays walk instead of a per-row pointer
		// chase): disjoint per-row writes, parallel over fixed row
		// chunks, raw[i] += t(x_i) bit-identical to the scalar update.
		ft := forest.Compile(&forest.Forest{
			Trees:       []forest.Tree{tree},
			NumFeatures: numFeat,
			Objective:   p.Objective,
		})
		if err := par.For(ctx, n, 0, func(_, lo, hi int) {
			ft.AddRawInto(train.X[lo:hi], raw[lo:hi])
		}); err != nil {
			return nil, nil, err
		}
		rep.TrainLoss = append(rep.TrainLoss, loss(p.Objective, raw, train.Y))
		if valid != nil {
			if err := par.For(ctx, len(rawValid), 0, func(_, lo, hi int) {
				ft.AddRawInto(valid.X[lo:hi], rawValid[lo:hi])
			}); err != nil {
				return nil, nil, err
			}
			vl := loss(p.Objective, rawValid, valid.Y)
			rep.ValidLoss = append(rep.ValidLoss, vl)
			if vl < bestValid {
				bestValid = vl
				rep.BestIteration = iter
			}
			if p.EarlyStoppingRounds > 0 && iter-rep.BestIteration >= p.EarlyStoppingRounds {
				rep.Stopped = true
				mEarlyStops.Inc()
				sp.Event("gbdt.early_stop",
					obs.Int("iteration", iter),
					obs.Int("best_iteration", rep.BestIteration),
					obs.F64("best_valid_loss", bestValid))
				mIterMs.Observe(float64(time.Since(iterStart)) / float64(time.Millisecond))
				break
			}
		}
		mIterMs.Observe(float64(time.Since(iterStart)) / float64(time.Millisecond))
	}
	if valid == nil {
		rep.BestIteration = len(f.Trees) - 1
	} else if rep.BestIteration >= 0 {
		f.Trees = f.Trees[:rep.BestIteration+1]
	}
	if err := f.Seal(); err != nil {
		return nil, nil, fmt.Errorf("gbdt: produced invalid forest: %w", err)
	}
	if len(rep.TrainLoss) > 0 {
		mTrainLoss.Set(rep.TrainLoss[len(rep.TrainLoss)-1])
	}
	sp.Set(obs.Int("trees", len(f.Trees)), obs.Bool("stopped_early", rep.Stopped))
	return f, rep, nil
}

// baseScore returns the constant initial prediction: the target mean for
// regression, the empirical log-odds (clipped) for binary classification.
func baseScore(y []float64, obj forest.Objective) float64 {
	m := stats.Mean(y)
	if obj != forest.BinaryLogistic {
		return m
	}
	const eps = 1e-6
	m = math.Min(math.Max(m, eps), 1-eps)
	return math.Log(m / (1 - m))
}

// computeGradients fills grad/hess with the first and second derivatives
// of the loss w.r.t. the raw score.
func computeGradients(obj forest.Objective, raw, y, grad, hess []float64) {
	if obj == forest.BinaryLogistic {
		for i := range raw {
			pr := forest.Sigmoid(raw[i])
			grad[i] = pr - y[i]
			h := pr * (1 - pr)
			if h < 1e-16 {
				h = 1e-16
			}
			hess[i] = h
		}
		return
	}
	for i := range raw {
		grad[i] = raw[i] - y[i]
		hess[i] = 1
	}
}

// loss evaluates the objective on raw scores: RMSE for regression,
// mean log-loss for classification.
func loss(obj forest.Objective, raw, y []float64) float64 {
	if obj == forest.BinaryLogistic {
		prob := make([]float64, len(raw))
		for i, r := range raw {
			prob[i] = forest.Sigmoid(r)
		}
		return stats.LogLoss(prob, y)
	}
	return stats.RMSE(raw, y)
}

// sampleRows and sampleFeatures each seed their own rand.Rand from the
// caller-derived stream seed (see par.SplitSeed), so every call is a
// self-contained deterministic draw.

func sampleRows(seed int64, n int, frac float64) []int {
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(n)[:k]
}

func sampleFeatures(seed int64, n int, frac float64) []int {
	k := int(math.Ceil(float64(n) * frac))
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(n)[:k]
}

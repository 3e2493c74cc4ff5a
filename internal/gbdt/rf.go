package gbdt

import (
	"context"
	"fmt"
	"math/rand"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/stats"
)

// RFParams configures Random-Forest training. A Random Forest is the other
// ensemble family the paper targets (§6): bootstrap-sampled trees with
// per-tree feature subsampling whose predictions are averaged.
type RFParams struct {
	NumTrees        int     // default 100
	NumLeaves       int     // default 127 (RF trees grow deep)
	MinSamplesLeaf  int     // default 5
	MaxBins         int     // default 255
	FeatureFraction float64 // per-tree column subsample (default ≈ √d/d)
	Seed            int64
	Classification  bool // targets in {0,1}; prediction is the positive fraction
}

func (p RFParams) withDefaults(numFeatures int) RFParams {
	if p.NumTrees == 0 {
		p.NumTrees = 100
	}
	if p.NumLeaves == 0 {
		p.NumLeaves = 127
	}
	if p.MinSamplesLeaf == 0 {
		p.MinSamplesLeaf = 5
	}
	if p.MaxBins == 0 {
		p.MaxBins = 255
	}
	if p.FeatureFraction == 0 {
		// Classic RF heuristic: √d features per tree.
		p.FeatureFraction = sqrtFrac(numFeatures)
	}
	return p
}

func sqrtFrac(d int) float64 {
	if d <= 1 {
		return 1
	}
	f := 1.0
	for f*f < float64(d) {
		f++
	}
	return f / float64(d)
}

// TrainRF fits a Random Forest on ds. Each tree is grown on a bootstrap
// resample (sampling with replacement, n draws) over a random feature
// subset, using variance-reduction splits; tree leaf values are the mean
// target of their samples divided by NumTrees, so the additive forest
// computes the ensemble average. For classification the averaged value is
// the predicted positive-class probability (the forest's Objective stays
// Regression because no link is applied to the averaged output).
func TrainRF(ds *dataset.Dataset, p RFParams) (*forest.Forest, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("gbdt: invalid dataset: %w", err)
	}
	if ds.NumRows() == 0 {
		return nil, fmt.Errorf("gbdt: empty dataset")
	}
	p = p.withDefaults(ds.NumFeatures())
	if p.Classification {
		for _, y := range ds.Y {
			//lint:ignore floatcmp binary labels must be exactly 0 or 1; anything else is a data error
			if y != 0 && y != 1 {
				return nil, fmt.Errorf("gbdt: RF classification requires targets in {0,1}, found %v", y)
			}
		}
	}

	n := ds.NumRows()
	numFeat := ds.NumFeatures()
	_, sp := obs.Start(context.Background(), "gbdt.train_rf",
		obs.Int("rows", n),
		obs.Int("features", numFeat),
		obs.Int("num_trees", p.NumTrees),
		obs.Int("num_leaves", p.NumLeaves),
		obs.Int("workers", par.Workers()))
	defer sp.End()
	bd := binDataset(ds.X, numFeat, p.MaxBins)

	// With raw = 0 and squared loss, grad = −y, hess = 1, so the Newton
	// leaf value −ΣG/ΣH is exactly the leaf's target mean and split gains
	// are variance reductions — the standard regression-tree criterion.
	grad := make([]float64, n)
	hess := make([]float64, n)
	for i := range grad {
		grad[i] = -ds.Y[i]
		hess[i] = 1
	}

	gp := growParams{
		numLeaves:      p.NumLeaves,
		minSamplesLeaf: p.MinSamplesLeaf,
		minGain:        0,
		lambda:         1e-9, // no regularization: plain mean leaves
		learningRate:   1.0 / float64(p.NumTrees),
	}

	f := &forest.Forest{
		NumFeatures:  numFeat,
		Objective:    forest.Regression,
		FeatureNames: ds.FeatureNames,
	}
	// Trees are fully independent given per-tree RNG streams derived
	// from (Seed, t), so they grow in parallel into preassigned slots —
	// the forest is identical at any worker count (and no longer depends
	// on a shared sequential RNG).
	f.Trees = make([]forest.Tree, p.NumTrees)
	//lint:ignore errdrop background context cannot be canceled
	_ = par.For(context.Background(), p.NumTrees, p.NumTrees, func(t, _, _ int) {
		rng := rand.New(rand.NewSource(par.SplitSeed(p.Seed, 2*t)))
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.Intn(n) // bootstrap: with replacement
		}
		feats := sampleFeatures(par.SplitSeed(p.Seed, 2*t+1), numFeat, p.FeatureFraction)
		f.Trees[t] = growTree(bd, grad, hess, rows, feats, gp)
	})
	if err := f.Seal(); err != nil {
		return nil, fmt.Errorf("gbdt: produced invalid RF: %w", err)
	}
	return f, nil
}

// OOBScore estimates RF generalization with a fresh bootstrap-free
// evaluation: it simply scores the forest on a held-out split of ds.
// (True out-of-bag bookkeeping would require retaining per-tree bags;
// a held-out split gives the same decision signal for our experiments.)
func OOBScore(f *forest.Forest, test *dataset.Dataset, classification bool) float64 {
	pred := f.PredictBatch(test.X)
	if classification {
		return stats.Accuracy(pred, test.Y)
	}
	return stats.RMSE(pred, test.Y)
}

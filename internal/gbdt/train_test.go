package gbdt

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/stats"
)

func TestTrainFitsStepFunction(t *testing.T) {
	// y = 1{x > 0.5}: a single split should capture it.
	ds := stepDataset(400)
	f, err := Train(ds, Params{NumTrees: 30, NumLeaves: 4, LearningRate: 0.3, MinSamplesLeaf: 5, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	rmse := stats.RMSE(f.PredictBatch(ds.X), ds.Y)
	if rmse > 0.05 {
		t.Errorf("train RMSE = %v, want < 0.05", rmse)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("forest invalid: %v", err)
	}
}

func stepDataset(n int) *dataset.Dataset {
	d := &dataset.Dataset{Task: dataset.Regression}
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		y := 0.0
		if x > 0.5 {
			y = 1
		}
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, y)
	}
	return d
}

func TestTrainFitsGPrime(t *testing.T) {
	ds := dataset.GPrime(3000, 0.1, 7)
	train, test := ds.Split(0.2, 1)
	f, err := Train(train, Params{NumTrees: 150, NumLeaves: 16, LearningRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	r2 := stats.R2(f.PredictBatch(test.X), test.Y)
	if r2 < 0.9 {
		t.Errorf("test R² = %v, want ≥ 0.9 on g′", r2)
	}
}

func TestTrainRecordsGainAndCover(t *testing.T) {
	ds := stepDataset(200)
	f, err := Train(ds, Params{NumTrees: 3, NumLeaves: 4, MinSamplesLeaf: 5, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	root := &f.Trees[0].Nodes[0]
	if root.IsLeaf() {
		t.Fatal("first tree failed to split a clean step")
	}
	if root.Gain <= 0 {
		t.Errorf("root gain = %v, want > 0", root.Gain)
	}
	if root.Cover != 200 {
		t.Errorf("root cover = %v, want 200", root.Cover)
	}
	// Children covers must sum to the parent's.
	l, r := &f.Trees[0].Nodes[root.Left], &f.Trees[0].Nodes[root.Right]
	if l.Cover+r.Cover != root.Cover {
		t.Errorf("child covers %v+%v != %v", l.Cover, r.Cover, root.Cover)
	}
}

func TestTrainThresholdNearStep(t *testing.T) {
	ds := stepDataset(400)
	f, err := Train(ds, Params{NumTrees: 1, NumLeaves: 2, MinSamplesLeaf: 5, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	root := &f.Trees[0].Nodes[0]
	if math.Abs(root.Threshold-0.5) > 0.02 {
		t.Errorf("split threshold = %v, want ≈ 0.5", root.Threshold)
	}
}

func TestTrainRespectsNumLeaves(t *testing.T) {
	ds := dataset.GPrime(1000, 0.1, 3)
	for _, nl := range []int{2, 8, 32} {
		f, err := Train(ds, Params{NumTrees: 5, NumLeaves: nl, Seed: 1})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		for ti := range f.Trees {
			if got := f.Trees[ti].NumLeaves(); got > nl {
				t.Errorf("tree %d has %d leaves, cap %d", ti, got, nl)
			}
		}
	}
}

func TestTrainBinaryLogistic(t *testing.T) {
	// Linearly separable data.
	d := &dataset.Dataset{Task: dataset.Classification}
	for i := 0; i < 400; i++ {
		x := float64(i) / 399
		y := 0.0
		if x > 0.5 {
			y = 1
		}
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, y)
	}
	f, err := Train(d, Params{NumTrees: 40, NumLeaves: 4, LearningRate: 0.3, MinSamplesLeaf: 5,
		Objective: forest.BinaryLogistic, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	pred := f.PredictBatch(d.X)
	for _, p := range pred {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
	}
	if acc := stats.Accuracy(pred, d.Y); acc < 0.98 {
		t.Errorf("accuracy = %v, want ≥ 0.98 on separable data", acc)
	}
}

func TestTrainLogisticRejectsBadTargets(t *testing.T) {
	d := &dataset.Dataset{
		X: [][]float64{{1}, {2}}, Y: []float64{0, 2}, Task: dataset.Classification,
	}
	if _, err := Train(d, Params{Objective: forest.BinaryLogistic}); err == nil {
		t.Error("accepted non-binary targets")
	}
}

func TestTrainParamValidation(t *testing.T) {
	ds := stepDataset(50)
	cases := []Params{
		{NumTrees: -1},
		{NumLeaves: 1, NumTrees: 1},
		{LearningRate: -0.1, NumTrees: 1},
		{FeatureFraction: 1.5, NumTrees: 1},
		{BaggingFraction: -0.2, NumTrees: 1},
		{Objective: "multiclass", NumTrees: 1},
	}
	for i, p := range cases {
		if _, err := Train(ds, p); err == nil {
			t.Errorf("case %d: accepted invalid params %+v", i, p)
		}
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(&dataset.Dataset{Task: dataset.Regression}, Params{}); err == nil {
		t.Error("accepted empty dataset")
	}
}

func TestEarlyStopping(t *testing.T) {
	ds := dataset.GPrime(2000, 0.3, 5)
	train, valid := ds.Split(0.3, 2)
	f, rep, err := TrainValid(train, valid, Params{
		NumTrees: 500, NumLeaves: 32, LearningRate: 0.3,
		EarlyStoppingRounds: 10, Seed: 1,
	})
	if err != nil {
		t.Fatalf("TrainValid: %v", err)
	}
	if !rep.Stopped {
		t.Error("expected early stopping to fire with 500 rounds of lr=0.3 on noisy data")
	}
	if len(f.Trees) != rep.BestIteration+1 {
		t.Errorf("forest has %d trees, best iteration %d", len(f.Trees), rep.BestIteration)
	}
	if len(rep.ValidLoss) < len(f.Trees) {
		t.Error("validation loss history shorter than forest")
	}
	// Valid loss at best iteration must be the minimum.
	best := rep.ValidLoss[rep.BestIteration]
	for _, v := range rep.ValidLoss {
		if v < best {
			t.Errorf("found valid loss %v below recorded best %v", v, best)
		}
	}
}

func TestTrainLossDecreases(t *testing.T) {
	ds := dataset.GPrime(1000, 0.1, 9)
	_, rep, err := TrainValid(ds, nil, Params{NumTrees: 50, NumLeaves: 8, Seed: 1})
	if err != nil {
		t.Fatalf("TrainValid: %v", err)
	}
	if rep.TrainLoss[len(rep.TrainLoss)-1] >= rep.TrainLoss[0] {
		t.Error("training loss failed to decrease")
	}
}

func TestTrainDeterministic(t *testing.T) {
	ds := dataset.GPrime(500, 0.1, 4)
	p := Params{NumTrees: 10, NumLeaves: 8, Seed: 42, BaggingFraction: 0.8, FeatureFraction: 0.8}
	f1, err := Train(ds, p)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	f2, err := Train(ds, p)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for _, x := range ds.X[:20] {
		if f1.RawPredict(x) != f2.RawPredict(x) {
			t.Fatal("same-seed training produced different forests")
		}
	}
}

func TestTrainWithSubsampling(t *testing.T) {
	ds := dataset.GPrime(1000, 0.1, 8)
	f, err := Train(ds, Params{NumTrees: 30, NumLeaves: 8, Seed: 1,
		BaggingFraction: 0.7, FeatureFraction: 0.6})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	r2 := stats.R2(f.PredictBatch(ds.X), ds.Y)
	if r2 < 0.7 {
		t.Errorf("R² = %v with subsampling, want ≥ 0.7", r2)
	}
}

func TestTrainPropagatesFeatureNames(t *testing.T) {
	ds := dataset.GPrime(200, 0.1, 1)
	f, err := Train(ds, Params{NumTrees: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if f.FeatureName(0) != "x1" {
		t.Errorf("feature name = %q, want x1", f.FeatureName(0))
	}
}

// TestNewtonLeafValuesExact verifies the Newton step on a hand-computable
// case: one tree, one split, known gradient sums.
func TestNewtonLeafValuesExact(t *testing.T) {
	// Four rows, two per side of x=0.5; targets −1,−1 (left) and 3,5
	// (right). Base score = mean(y) = 1.5.
	d := &dataset.Dataset{
		X:    [][]float64{{0.1}, {0.2}, {0.8}, {0.9}},
		Y:    []float64{-1, -1, 3, 5},
		Task: dataset.Regression,
	}
	lambda := 2.0
	lr := 0.5
	f, err := Train(d, Params{
		NumTrees: 1, NumLeaves: 2, LearningRate: lr,
		MinSamplesLeaf: 1, Lambda: lambda, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	tr := &f.Trees[0]
	root := &tr.Nodes[0]
	if root.IsLeaf() {
		t.Fatal("expected one split")
	}
	// Gradients (pred − y) at raw = base = 1.5: left {2.5, 2.5},
	// right {−1.5, −3.5}. Leaf value = −ΣG/(ΣH+λ)·lr:
	// left −5/(2+2)·0.5 = −0.625, right 5/(2+2)·0.5 = 0.625.
	left := tr.Nodes[root.Left].Value
	right := tr.Nodes[root.Right].Value
	if math.Abs(left-(-0.625)) > 1e-12 {
		t.Errorf("left leaf = %v, want -0.625", left)
	}
	if math.Abs(right-0.625) > 1e-12 {
		t.Errorf("right leaf = %v, want 0.625", right)
	}
	// Split gain = ½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]
	//            = ½·[25/4 + 25/4 − 0/6] = 6.25.
	if math.Abs(root.Gain-6.25) > 1e-12 {
		t.Errorf("gain = %v, want 6.25", root.Gain)
	}
}

// TestGainImportanceMatchesNodeSum ties the forest-level importance to
// the trainer's bookkeeping.
func TestGainImportanceMatchesNodeSum(t *testing.T) {
	ds := dataset.GPrime(800, 0.1, 21)
	f, err := Train(ds, Params{NumTrees: 10, NumLeaves: 8, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	imp := f.GainImportance()
	var fromNodes float64
	for ti := range f.Trees {
		for ni := range f.Trees[ti].Nodes {
			n := &f.Trees[ti].Nodes[ni]
			if !n.IsLeaf() {
				fromNodes += n.Gain
			}
		}
	}
	var fromImp float64
	for _, v := range imp {
		fromImp += v
	}
	if math.Abs(fromNodes-fromImp) > 1e-9 {
		t.Errorf("importance sum %v != node gain sum %v", fromImp, fromNodes)
	}
}

func TestBaseScore(t *testing.T) {
	if got := baseScore([]float64{1, 2, 3}, forest.Regression); got != 2 {
		t.Errorf("regression base = %v, want 2", got)
	}
	got := baseScore([]float64{1, 1, 0, 0}, forest.BinaryLogistic)
	if math.Abs(got) > 1e-12 { // log-odds of 0.5
		t.Errorf("logistic base = %v, want 0", got)
	}
	// All-positive targets must not produce +Inf.
	if g := baseScore([]float64{1, 1}, forest.BinaryLogistic); math.IsInf(g, 0) {
		t.Error("logistic base overflowed")
	}
}

// TestTrainAttributesParChunks: histogram accumulation and the raw-score
// updates run under the gbdt.train span, so their par chunks count on
// site="gbdt.train" and none on site="untraced"; the forest is the same
// at every worker count.
func TestTrainAttributesParChunks(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	chunks := obs.Metrics().CounterVec("par.chunks", "site")
	untraced, traced := chunks.With("untraced"), chunks.With("gbdt.train")
	ds := dataset.GPrime(600, 0.1, 5)
	valid := dataset.GPrime(200, 0.1, 6)
	p := Params{NumTrees: 15, NumLeaves: 8, Seed: 3, BaggingFraction: 0.8, FeatureFraction: 0.8}
	var want string
	for _, workers := range []int{1, 2, 4} {
		par.SetWorkers(workers)
		u0, t0 := untraced.Value(), traced.Value()
		f, _, err := TrainValidCtx(context.Background(), ds, valid, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := untraced.Value() - u0; d != 0 {
			t.Errorf("workers=%d: %d par chunks on site=untraced", workers, d)
		}
		if traced.Value() == t0 {
			t.Errorf("workers=%d: no par chunks on site=gbdt.train", workers)
		}
		data, err := forest.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(data)
		} else if string(data) != want {
			t.Errorf("workers=%d: forest differs from workers=1", workers)
		}
	}
}

// countdownCtx reports cancellation from its (n+1)th Err call on, so a
// test can cancel training at every check point deterministically.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cancelAtEveryCheck runs fn once uncanceled to count its ctx checks,
// then once canceled at each check in turn, and requires fn to report
// context.Canceled every time.
func cancelAtEveryCheck(t *testing.T, fn func(ctx context.Context) error) {
	t.Helper()
	left := new(atomic.Int64)
	left.Store(math.MaxInt64 / 2)
	if err := fn(countdownCtx{context.Background(), left}); err != nil {
		t.Fatalf("uncanceled run: %v", err)
	}
	checks := math.MaxInt64/2 - left.Load()
	if checks < 4 {
		t.Fatalf("only %d ctx checks", checks)
	}
	for n := int64(0); n < checks; n++ {
		left.Store(n)
		if err := fn(countdownCtx{context.Background(), left}); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at check %d of %d: err = %v", n, checks, err)
		}
	}
}

// TestTrainCanceledAtEveryCheck cancels training, and one tree's growth,
// at each ctx check in turn — inside histogram accumulation included —
// and requires the ctx error and no result every time: a tree grown
// from a partial histogram must never come back.
func TestTrainCanceledAtEveryCheck(t *testing.T) {
	ds := dataset.GPrime(300, 0.1, 7)
	p := Params{NumTrees: 4, NumLeaves: 6, Seed: 1}
	cancelAtEveryCheck(t, func(ctx context.Context) error {
		f, _, err := TrainValidCtx(ctx, ds, nil, p)
		if err != nil && f != nil {
			t.Fatalf("forest returned with error %v", err)
		}
		return err
	})

	bd := binDataset(ds.X, ds.NumFeatures(), 64)
	grad, hess := make([]float64, len(ds.Y)), make([]float64, len(ds.Y))
	rows := make([]int, len(ds.Y))
	for i := range rows {
		rows[i], grad[i], hess[i] = i, -ds.Y[i], 1
	}
	feats := []int{0, 1, 2, 3, 4}
	gp := growParams{numLeaves: 8, minSamplesLeaf: 5, lambda: 1, learningRate: 1}
	cancelAtEveryCheck(t, func(ctx context.Context) error {
		tree, err := growTree(ctx, bd, grad, hess, rows, feats, gp)
		if err != nil && len(tree.Nodes) != 0 {
			t.Fatalf("tree returned with error %v", err)
		}
		return err
	})
}

package gbdt

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gef/internal/dataset"
)

// TestHistogramSubtraction verifies the LightGBM trick the grower relies
// on: parent histogram minus one child's equals the other child's, for
// random partitions.
func TestHistogramSubtraction(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	n := 500
	xs := make([][]float64, n)
	grad := make([]float64, n)
	hess := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64()}
		grad[i] = r.NormFloat64()
		hess[i] = r.Float64() + 0.1
	}
	bd := binDataset(xs, 2, 32)
	features := []int{0, 1}

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	ctx := context.Background()
	parent := newHistogram(bd, features)
	if err := parent.accumulate(ctx, bd, rows, grad, hess); err != nil {
		t.Fatal(err)
	}

	// Random split of the rows.
	cut := 100 + r.Intn(300)
	left, right := rows[:cut], rows[cut:]
	lh := newHistogram(bd, features)
	rh := newHistogram(bd, features)
	if err := lh.accumulate(ctx, bd, left, grad, hess); err != nil {
		t.Fatal(err)
	}
	if err := rh.accumulate(ctx, bd, right, grad, hess); err != nil {
		t.Fatal(err)
	}

	parent.subtract(lh) // parent now holds the right child
	for f, cells := range parent.bins {
		for b := range cells {
			if math.Abs(cells[b].g-rh.bins[f][b].g) > 1e-9 ||
				math.Abs(cells[b].h-rh.bins[f][b].h) > 1e-9 ||
				cells[b].c != rh.bins[f][b].c {
				t.Fatalf("subtraction mismatch at feature %d bin %d: %+v vs %+v",
					f, b, cells[b], rh.bins[f][b])
			}
		}
	}
}

// TestGrowTreePartitionInvariants: after growing, every leaf's cover
// equals its row count, sibling covers sum to the parent's, and every
// training row lands in exactly the leaf whose range contained it.
func TestGrowTreePartitionInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	n := 800
	xs := make([][]float64, n)
	grad := make([]float64, n)
	hess := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		grad[i] = -(xs[i][0] + math.Sin(5*xs[i][1])) // fit y with raw=0
		hess[i] = 1
	}
	bd := binDataset(xs, 3, 64)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	tree, err := growTree(context.Background(), bd, grad, hess, rows, []int{0, 1, 2}, growParams{
		numLeaves: 16, minSamplesLeaf: 10, lambda: 1, learningRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sibling covers sum to the parent's everywhere.
	for i := range tree.Nodes {
		nd := &tree.Nodes[i]
		if nd.IsLeaf() {
			continue
		}
		if tree.Nodes[nd.Left].Cover+tree.Nodes[nd.Right].Cover != nd.Cover {
			t.Fatalf("node %d: child covers %v+%v != %v", i,
				tree.Nodes[nd.Left].Cover, tree.Nodes[nd.Right].Cover, nd.Cover)
		}
	}
	// Routing every row through the tree and counting arrivals per leaf
	// must reproduce the covers.
	counts := make(map[int]float64)
	for _, x := range xs {
		counts[tree.Leaf(x)]++
	}
	for i := range tree.Nodes {
		nd := &tree.Nodes[i]
		if nd.IsLeaf() && counts[i] != nd.Cover {
			t.Fatalf("leaf %d cover %v but %v rows arrive", i, nd.Cover, counts[i])
		}
	}
}

// Property: trained-forest predictions are always finite, whatever the
// (finite) input.
func TestPredictionsFiniteProperty(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	xs := make([][]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = []float64{r.Float64() * 10, r.NormFloat64()}
		ys[i] = xs[i][0] - xs[i][1]
	}
	f, err := Train(&dataset.Dataset{X: xs, Y: ys, Task: dataset.Regression},
		Params{NumTrees: 20, NumLeaves: 8, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true // only finite inputs in scope
		}
		v := f.RawPredict([]float64{a, b})
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package forest

import (
	"math"
	"math/rand"
	"testing"
)

// randTree grows a random valid tree breadth-first: each dequeued node
// becomes internal (children appended after it, so indices are acyclic by
// construction) until the internal budget runs out. Thresholds and half
// the row values are rounded to eighths so exact x == threshold boundary
// hits occur with real probability.
func randTree(r *rand.Rand, numFeat, maxInternal int) Tree {
	nodes := []Node{{}}
	queue := []int{0}
	internal := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if internal < maxInternal && r.Float64() < 0.7 {
			internal++
			l := len(nodes)
			nodes = append(nodes, Node{}, Node{})
			nodes[i] = Node{
				Feature:   r.Intn(numFeat),
				Threshold: math.Round(r.NormFloat64()*8) / 8,
				Left:      l,
				Right:     l + 1,
				Gain:      r.Float64(),
			}
			queue = append(queue, l, l+1)
		} else {
			nodes[i] = Node{Left: -1, Right: -1, Value: r.NormFloat64()}
		}
	}
	// Covers: leaves get a random positive count, internals the sum of
	// their children (children always have higher indices, so a reverse
	// sweep sees both before the parent).
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		if n.IsLeaf() {
			n.Cover = float64(1 + r.Intn(50))
		} else {
			n.Cover = nodes[n.Left].Cover + nodes[n.Right].Cover
		}
	}
	return Tree{Nodes: nodes}
}

// randForest builds a random valid forest for parity tests.
func randForest(r *rand.Rand, numTrees, numFeat, maxInternal int, obj Objective) *Forest {
	f := &Forest{NumFeatures: numFeat, BaseScore: r.NormFloat64(), Objective: obj}
	for t := 0; t < numTrees; t++ {
		f.Trees = append(f.Trees, randTree(r, numFeat, maxInternal))
	}
	return f
}

// randRow draws a feature row; half the coordinates are rounded to
// eighths (to land exactly on thresholds) and NaN appears with the given
// probability.
func randRow(r *rand.Rand, numFeat int, nanProb float64) []float64 {
	x := make([]float64, numFeat)
	for j := range x {
		switch {
		case r.Float64() < nanProb:
			x[j] = math.NaN()
		case r.Float64() < 0.5:
			x[j] = math.Round(r.NormFloat64()*8) / 8
		default:
			x[j] = r.NormFloat64()
		}
	}
	return x
}

func TestFlatLeafParityRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		f := randForest(r, 1+r.Intn(6), 1+r.Intn(5), r.Intn(40), Regression)
		if err := f.Validate(); err != nil {
			t.Fatalf("trial %d: random forest invalid: %v", trial, err)
		}
		fl := Compile(f)
		for rowTrial := 0; rowTrial < 50; rowTrial++ {
			x := randRow(r, f.NumFeatures, 0.05)
			for ti := range f.Trees {
				want := int32(f.Trees[ti].Leaf(x))
				if got := fl.Leaf(ti, x); fl.OrigIndex(got) != want {
					t.Fatalf("trial %d tree %d: Leaf(%v) = slot %d (orig %d), want orig %d",
						trial, ti, x, got, fl.OrigIndex(got), want)
				}
			}
		}
	}
}

func TestLeavesBatchMatchesLeaf(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := randForest(r, 5, 4, 30, Regression)
	xs := make([][]float64, 3*rowBlock+17) // exercises full and ragged blocks
	for i := range xs {
		xs[i] = randRow(r, f.NumFeatures, 0.02)
	}
	fl := Compile(f)
	out := make([]int32, len(xs)*fl.NumTrees)
	fl.LeavesBatch(xs, out)
	for i, x := range xs {
		for ti := 0; ti < fl.NumTrees; ti++ {
			if got, want := out[i*fl.NumTrees+ti], fl.Leaf(ti, x); got != want {
				t.Fatalf("row %d tree %d: batch leaf %d, walk leaf %d",
					i, ti, got, want)
			}
		}
	}
}

func TestLeavesBatchPanicsOnShortOut(t *testing.T) {
	f := twoTreeForest()
	fl := Compile(f)
	defer func() {
		if recover() == nil {
			t.Fatal("LeavesBatch accepted an undersized out slice")
		}
	}()
	fl.LeavesBatch([][]float64{{0, 0}}, make([]int32, 1))
}

func TestRawPredictBatchIntoBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := randForest(r, 6, 3, 25, Regression)
	xs := make([][]float64, rowBlock+9)
	for i := range xs {
		xs[i] = randRow(r, f.NumFeatures, 0.02)
	}
	fl := Compile(f)
	out := make([]float64, len(xs))
	fl.RawPredictBatchInto(xs, out)
	for i, x := range xs {
		// Reference accumulation in the same order: base + trees.
		want := f.BaseScore
		for ti := range f.Trees {
			want += f.Trees[ti].Predict(x)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: batch raw %v != pointer raw %v",
				i, out[i], want)
		}
		if got := fl.RawPredict(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: single raw %v != pointer raw %v",
				i, got, want)
		}
	}
}

func TestPredictBatchIntoAppliesSigmoid(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := randForest(r, 4, 3, 20, BinaryLogistic)
	xs := make([][]float64, 33)
	for i := range xs {
		xs[i] = randRow(r, f.NumFeatures, 0)
	}
	fl := Compile(f)
	out := make([]float64, len(xs))
	fl.PredictBatchInto(xs, out)
	for i, x := range xs {
		want := f.Predict(x)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: %v != pointer predict %v", i, out[i], want)
		}
		if got := fl.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: flat single predict %v != %v", i, got, want)
		}
	}
}

func TestAddRawIntoAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	f := randForest(r, 3, 3, 15, Regression)
	fl := Compile(f)
	xs := make([][]float64, 21)
	for i := range xs {
		xs[i] = randRow(r, f.NumFeatures, 0)
	}
	out := make([]float64, len(xs))
	for i := range out {
		out[i] = float64(i) * 0.25
	}
	fl.AddRawInto(xs, out)
	for i, x := range xs {
		want := float64(i) * 0.25
		for ti := range f.Trees {
			want += f.Trees[ti].Predict(x)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: AddRawInto %v, want %v (no BaseScore)", i, out[i], want)
		}
	}
}

// refExpectedValue is the recursive cover-weighted expectation the
// compile-time treeMeanIter replaced; the two must agree bit-for-bit.
func refExpectedValue(nodes []Node, i int) float64 {
	n := &nodes[i]
	if n.IsLeaf() {
		return n.Value
	}
	l := refExpectedValue(nodes, n.Left)
	r := refExpectedValue(nodes, n.Right)
	return (nodes[n.Left].Cover*l + nodes[n.Right].Cover*r) / n.Cover
}

func TestTreeMeanMatchesRecursiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		f := randForest(r, 4, 3, 30, Regression)
		fl := Compile(f)
		for ti := range f.Trees {
			want := refExpectedValue(f.Trees[ti].Nodes, 0)
			if math.Float64bits(fl.TreeMean(ti)) != math.Float64bits(want) {
				t.Fatalf("trial %d tree %d: TreeMean %v != recursive %v",
					trial, ti, fl.TreeMean(ti), want)
			}
		}
	}
}

func TestFlatDepthZeroTree(t *testing.T) {
	f := &Forest{
		Trees:       []Tree{{Nodes: []Node{{Left: -1, Right: -1, Value: 3, Cover: 1}}}},
		NumFeatures: 2,
		Objective:   Regression,
	}
	fl := Compile(f)
	if got := fl.Leaf(0, []float64{0, 0}); got != 0 {
		t.Fatalf("leaf-only tree routed to %d", got)
	}
	out := make([]float64, 1)
	fl.RawPredictBatchInto([][]float64{{0, 0}}, out)
	if out[0] != 3 {
		t.Fatalf("leaf-only raw %v, want 3", out[0])
	}
}

// TestDeepChainTreeIterative is the 10k-depth regression test for the
// explicit-stack Depth/Validate walkers and the early-exit traversal
// fallback: a left-descending chain this deep overflowed the goroutine
// stack under the old recursive implementations.
func TestDeepChainTreeIterative(t *testing.T) {
	const depth = 10000
	nodes := make([]Node, 0, 2*depth+1)
	for d := 0; d < depth; d++ {
		i := len(nodes)
		nodes = append(nodes,
			Node{Feature: 0, Threshold: float64(depth - d), Left: i + 2, Right: i + 1, Gain: 1, Cover: float64(depth-d) + 1},
			Node{Left: -1, Right: -1, Value: float64(d), Cover: 1})
	}
	nodes = append(nodes, Node{Left: -1, Right: -1, Value: -1, Cover: 1})
	f := &Forest{Trees: []Tree{{Nodes: nodes}}, NumFeatures: 1, Objective: Regression}

	if got := f.Trees[0].Depth(); got != depth {
		t.Fatalf("Depth = %d, want %d", got, depth)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	fl := Compile(f)
	if got := fl.TreeMaxDepth(0); got != depth {
		t.Fatalf("TreeMaxDepth = %d, want %d", got, depth)
	}
	// x=0 descends the full chain; x beyond the root threshold
	// exits right immediately. Both must match the pointer walk.
	for _, x := range [][]float64{{0}, {depth + 1}, {depth / 2.0}} {
		want := int32(f.Trees[0].Leaf(x))
		if got := fl.Leaf(0, x); fl.OrigIndex(got) != want {
			t.Fatalf("Leaf(%v) = slot %d (orig %d), want orig %d",
				x, got, fl.OrigIndex(got), want)
		}
	}
	out := make([]int32, 2)
	fl.LeavesBatch([][]float64{{0}, {depth + 1}}, out)
	if fl.OrigIndex(out[0]) != int32(f.Trees[0].Leaf([]float64{0})) {
		t.Fatalf("batch leaf on deep chain diverged")
	}
}

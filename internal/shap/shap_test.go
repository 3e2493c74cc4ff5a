package shap

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
)

// bruteForceShap computes exact Shapley values for the path-dependent
// value function v(S) = E[f(x) | x_S] by exhaustive subset enumeration —
// exponential, test-only reference.
func bruteForceShap(f *forest.Forest, x []float64) []float64 {
	d := f.NumFeatures
	phi := make([]float64, d)
	var fact func(n int) float64
	fact = func(n int) float64 {
		if n <= 1 {
			return 1
		}
		return float64(n) * fact(n-1)
	}
	value := func(mask int) float64 {
		v := f.BaseScore
		for ti := range f.Trees {
			v += condExpect(&f.Trees[ti], 0, x, mask)
		}
		return v
	}
	for i := 0; i < d; i++ {
		for mask := 0; mask < 1<<d; mask++ {
			if mask&(1<<i) != 0 {
				continue
			}
			s := popcount(mask)
			w := fact(s) * fact(d-s-1) / fact(d)
			phi[i] += w * (value(mask|1<<i) - value(mask))
		}
	}
	return phi
}

// condExpect traverses the tree following x for features in the mask and
// averaging by covers otherwise.
func condExpect(t *forest.Tree, i int, x []float64, mask int) float64 {
	n := &t.Nodes[i]
	if n.IsLeaf() {
		return n.Value
	}
	if mask&(1<<n.Feature) != 0 {
		if x[n.Feature] <= n.Threshold {
			return condExpect(t, n.Left, x, mask)
		}
		return condExpect(t, n.Right, x, mask)
	}
	l, r := &t.Nodes[n.Left], &t.Nodes[n.Right]
	return (l.Cover*condExpect(t, n.Left, x, mask) + r.Cover*condExpect(t, n.Right, x, mask)) / n.Cover
}

func popcount(m int) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// depth2Forest builds a 2-feature forest with interacting splits and
// consistent covers.
func depth2Forest() *forest.Forest {
	return &forest.Forest{
		Trees: []forest.Tree{
			{Nodes: []forest.Node{
				{Feature: 0, Threshold: 0.5, Left: 1, Right: 2, Gain: 5, Cover: 100},
				{Feature: 1, Threshold: 0.3, Left: 3, Right: 4, Gain: 2, Cover: 60},
				{Left: -1, Right: -1, Value: 3.0, Cover: 40},
				{Left: -1, Right: -1, Value: -1.0, Cover: 20},
				{Left: -1, Right: -1, Value: 1.5, Cover: 40},
			}},
			{Nodes: []forest.Node{
				{Feature: 1, Threshold: 0.7, Left: 1, Right: 2, Gain: 3, Cover: 100},
				{Left: -1, Right: -1, Value: -0.5, Cover: 70},
				{Left: -1, Right: -1, Value: 2.0, Cover: 30},
			}},
		},
		NumFeatures: 2,
		BaseScore:   0.25,
		Objective:   forest.Regression,
	}
}

func TestValuesMatchBruteForceDepth2(t *testing.T) {
	f := depth2Forest()
	points := [][]float64{
		{0.2, 0.1}, {0.2, 0.5}, {0.2, 0.9},
		{0.8, 0.1}, {0.8, 0.5}, {0.8, 0.9},
		{0.5, 0.3}, // boundary values
	}
	for _, x := range points {
		phi, _ := Values(f, x)
		want := bruteForceShap(f, x)
		for i := range want {
			if math.Abs(phi[i]-want[i]) > 1e-9 {
				t.Errorf("x=%v: φ[%d] = %v, want %v", x, i, phi[i], want[i])
			}
		}
	}
}

func TestValuesMatchBruteForceTrained(t *testing.T) {
	// A trained 3-feature forest with realistic covers.
	rng := rand.New(rand.NewSource(3))
	d := &dataset.Dataset{Task: dataset.Regression}
	for i := 0; i < 500; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		d.X = append(d.X, row)
		d.Y = append(d.Y, row[0]+2*row[1]*row[2])
	}
	f, err := gbdt.Train(d, gbdt.Params{NumTrees: 10, NumLeaves: 8, MinSamplesLeaf: 10, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	for _, x := range d.X[:5] {
		phi, _ := Values(f, x)
		want := bruteForceShap(f, x)
		for i := range want {
			if math.Abs(phi[i]-want[i]) > 1e-8 {
				t.Errorf("x=%v: φ[%d] = %v, want %v", x, i, phi[i], want[i])
			}
		}
	}
}

func TestLocalAccuracy(t *testing.T) {
	// Σφ + base must reconstruct the raw prediction exactly.
	rng := rand.New(rand.NewSource(5))
	d := dataset.GPrime(800, 0.1, 21)
	f, err := gbdt.Train(d, gbdt.Params{NumTrees: 30, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	for i := 0; i < 20; i++ {
		x := d.X[rng.Intn(len(d.X))]
		phi, base := Values(f, x)
		var sum float64 = base
		for _, v := range phi {
			sum += v
		}
		if math.Abs(sum-f.RawPredict(x)) > 1e-8 {
			t.Errorf("Σφ+base = %v, raw = %v", sum, f.RawPredict(x))
		}
	}
}

func TestBaseIsExpectedValue(t *testing.T) {
	f := depth2Forest()
	_, base := Values(f, []float64{0.5, 0.5})
	// Tree 1: (40·3 + 20·(−1) + 40·1.5)/100 = 1.6; tree 2: (70·(−0.5)+30·2)/100 = 0.25.
	want := 0.25 + 1.6 + 0.25
	if math.Abs(base-want) > 1e-12 {
		t.Errorf("base = %v, want %v", base, want)
	}
}

func TestUnusedFeatureGetsZero(t *testing.T) {
	f := depth2Forest()
	f.NumFeatures = 3 // feature 2 exists but is never split on
	phi, _ := Values(f, []float64{0.2, 0.9, 0.5})
	if phi[2] != 0 {
		t.Errorf("unused feature attribution = %v, want 0", phi[2])
	}
}

func TestSymmetryOnSymmetricTree(t *testing.T) {
	// A tree where both features play interchangeable roles: equal covers,
	// equal value spread. At a symmetric input both attributions match.
	f := &forest.Forest{
		Trees: []forest.Tree{{Nodes: []forest.Node{
			{Feature: 0, Threshold: 0.5, Left: 1, Right: 2, Cover: 100},
			{Feature: 1, Threshold: 0.5, Left: 3, Right: 4, Cover: 50},
			{Feature: 1, Threshold: 0.5, Left: 5, Right: 6, Cover: 50},
			{Left: -1, Right: -1, Value: 0, Cover: 25},
			{Left: -1, Right: -1, Value: 1, Cover: 25},
			{Left: -1, Right: -1, Value: 1, Cover: 25},
			{Left: -1, Right: -1, Value: 2, Cover: 25},
		}}},
		NumFeatures: 2,
		Objective:   forest.Regression,
	}
	phi, _ := Values(f, []float64{0.8, 0.8})
	if math.Abs(phi[0]-phi[1]) > 1e-12 {
		t.Errorf("symmetric features got φ = %v, %v", phi[0], phi[1])
	}
}

// randomForestFixture builds a random but structurally valid forest with
// consistent covers, for property testing.
func randomForestFixture(r *rand.Rand, numFeatures, numTrees, depth int) *forest.Forest {
	f := &forest.Forest{NumFeatures: numFeatures, Objective: forest.Regression, BaseScore: r.NormFloat64()}
	for t := 0; t < numTrees; t++ {
		var nodes []forest.Node
		var build func(d int, cover float64) int
		build = func(d int, cover float64) int {
			idx := len(nodes)
			if d == 0 || r.Float64() < 0.3 {
				nodes = append(nodes, forest.Node{Left: -1, Right: -1, Value: r.NormFloat64(), Cover: cover})
				return idx
			}
			nodes = append(nodes, forest.Node{})
			frac := 0.2 + 0.6*r.Float64()
			lc := cover * frac
			rc := cover - lc
			l := build(d-1, lc)
			ri := build(d-1, rc)
			nodes[idx] = forest.Node{
				Feature:   r.Intn(numFeatures),
				Threshold: r.Float64(),
				Left:      l, Right: ri,
				Gain:  r.Float64(),
				Cover: cover,
			}
			return idx
		}
		build(depth, 100)
		f.Trees = append(f.Trees, forest.Tree{Nodes: nodes})
	}
	return f
}

// Property: on random forests and random inputs, path-dependent TreeSHAP
// matches brute-force Shapley enumeration and satisfies local accuracy.
func TestValuesMatchBruteForceProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := randomForestFixture(r, 2+r.Intn(2), 1+r.Intn(3), 2+r.Intn(2))
		if err := f.Validate(); err != nil {
			t.Fatalf("seed %d: fixture invalid: %v", seed, err)
		}
		x := make([]float64, f.NumFeatures)
		for j := range x {
			x[j] = r.Float64()
		}
		phi, base := Values(f, x)
		want := bruteForceShap(f, x)
		for i := range want {
			if math.Abs(phi[i]-want[i]) > 1e-8 {
				t.Fatalf("seed %d: φ[%d] = %v, want %v", seed, i, phi[i], want[i])
			}
		}
		sum := base
		for _, v := range phi {
			sum += v
		}
		if math.Abs(sum-f.RawPredict(x)) > 1e-8 {
			t.Fatalf("seed %d: local accuracy violated", seed)
		}
	}
}

// Property: interventional TreeSHAP matches brute force on the same
// random fixtures with random backgrounds.
func TestInterventionalMatchesBruteForceProperty(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := randomForestFixture(r, 2+r.Intn(2), 1+r.Intn(2), 2+r.Intn(2))
		x := make([]float64, f.NumFeatures)
		for j := range x {
			x[j] = r.Float64()
		}
		bg := make([][]float64, 1+r.Intn(4))
		for i := range bg {
			row := make([]float64, f.NumFeatures)
			for j := range row {
				row[j] = r.Float64()
			}
			bg[i] = row
		}
		phi, _ := InterventionalValues(f, x, bg)
		want := bruteForceInterventional(f, x, bg)
		for i := range want {
			if math.Abs(phi[i]-want[i]) > 1e-8 {
				t.Fatalf("seed %d: φ[%d] = %v, want %v", seed, i, phi[i], want[i])
			}
		}
	}
}

func TestTopAttributions(t *testing.T) {
	phi := []float64{0.1, -2, 0.5}
	top := TopAttributions(phi, 2)
	if len(top) != 2 || top[0].Feature != 1 || top[1].Feature != 2 {
		t.Errorf("TopAttributions = %+v", top)
	}
	if top[0].Value != -2 {
		t.Errorf("top value = %v, want -2", top[0].Value)
	}
	// k larger than available returns all.
	if got := TopAttributions(phi, 10); len(got) != 3 {
		t.Errorf("got %d attributions, want 3", len(got))
	}
}

func TestGlobalImportance(t *testing.T) {
	d := dataset.GPrime(600, 0.1, 23)
	f, err := gbdt.Train(d, gbdt.Params{NumTrees: 30, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	imp := GlobalImportance(f, d.X[:100])
	if len(imp) != 5 {
		t.Fatalf("importance length %d, want 5", len(imp))
	}
	for i, v := range imp {
		if v < 0 {
			t.Errorf("importance[%d] = %v, want ≥ 0", i, v)
		}
	}
	// g′ gives every feature real influence; none should be ~zero.
	for i, v := range imp {
		if v < 1e-4 {
			t.Errorf("feature %d importance suspiciously low: %v", i, v)
		}
	}
}

func TestDependenceSeries(t *testing.T) {
	d := dataset.GPrime(300, 0.1, 29)
	f, err := gbdt.Train(d, gbdt.Params{NumTrees: 20, NumLeaves: 8, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	xs, phis := DependenceSeries(f, d.X[:50], 2)
	if len(xs) != 50 || len(phis) != 50 {
		t.Fatalf("series lengths %d/%d", len(xs), len(phis))
	}
	for i, x := range d.X[:50] {
		if xs[i] != x[2] {
			t.Fatal("series x values do not match the sample")
		}
	}
	// Feature 2 of g′ is a sharp sigmoid at 0.5: attributions left of 0.45
	// must be clearly below those right of 0.55 on average.
	var lo, hi, nlo, nhi float64
	for i := range xs {
		if xs[i] < 0.45 {
			lo += phis[i]
			nlo++
		} else if xs[i] > 0.55 {
			hi += phis[i]
			nhi++
		}
	}
	if nlo > 0 && nhi > 0 && hi/nhi <= lo/nlo {
		t.Errorf("sigmoid feature dependence not increasing: %v vs %v", lo/nlo, hi/nhi)
	}
}

// referenceValues is the allocating recursion ValuesFlat replaced: every
// node visit extends into a fresh path slice and unwinds into another.
// It is the bitwise oracle for the arena walk.
func referenceValues(fl *forest.Flat, x []float64) (phi []float64, base float64) {
	phi = make([]float64, fl.NumFeatures)
	base = fl.BaseScore
	for t := 0; t < fl.NumTrees; t++ {
		base += fl.TreeMean(t)
		referenceRecurse(fl, x, phi, fl.TreeRoot(t), nil, 1, 1, -1)
	}
	return phi, base
}

func referenceRecurse(fl *forest.Flat, x, phi []float64, j int32, m []pathElem, pz, po float64, pi int) {
	m = referenceExtend(m, pz, po, pi)
	if fl.IsLeaf(j) {
		v := fl.Value(j)
		for i := 1; i < len(m); i++ {
			w := sumUnwoundWeights(m, i)
			phi[m[i].d] += w * (m[i].o - m[i].z) * v
		}
		return
	}
	feat := int(fl.Feature(j))
	hot, cold := fl.Left(j), fl.Right(j)
	if x[feat] > fl.Threshold(j) {
		hot, cold = cold, hot
	}
	iz, io := 1.0, 1.0
	if k := findFirst(m, feat); k >= 0 {
		iz, io = m[k].z, m[k].o
		m = referenceUnwind(m, k)
	}
	rj := fl.Cover(j)
	referenceRecurse(fl, x, phi, hot, m, iz*fl.Cover(hot)/rj, io, feat)
	referenceRecurse(fl, x, phi, cold, m, iz*fl.Cover(cold)/rj, 0, feat)
}

func referenceExtend(m []pathElem, pz, po float64, pi int) []pathElem {
	l := len(m)
	out := make([]pathElem, l+1)
	copy(out, m)
	w := 0.0
	if l == 0 {
		w = 1
	}
	out[l] = pathElem{d: pi, z: pz, o: po, w: w}
	for i := l - 1; i >= 0; i-- {
		out[i+1].w += po * out[i].w * float64(i+1) / float64(l+1)
		out[i].w = pz * out[i].w * float64(l-i) / float64(l+1)
	}
	return out
}

func referenceUnwind(m []pathElem, i int) []pathElem {
	l := len(m) - 1
	out := make([]pathElem, l)
	copy(out, m[:l])
	n := m[l].w
	oi, zi := m[i].o, m[i].z
	for j := l - 1; j >= 0; j-- {
		if oi != 0 {
			tmp := out[j].w
			out[j].w = n * float64(l+1) / (float64(j+1) * oi)
			n = tmp - out[j].w*zi*float64(l-j)/float64(l+1)
		} else {
			out[j].w = out[j].w * float64(l+1) / (zi * float64(l-j))
		}
	}
	for j := i; j < l; j++ {
		out[j].d, out[j].z, out[j].o = m[j+1].d, m[j+1].z, m[j+1].o
	}
	return out
}

// trainedShapForest is a depth-varied GBDT on G′ whose features repeat
// along root-to-leaf paths, so the walk exercises unwind.
func trainedShapForest(t *testing.T) (*forest.Forest, *dataset.Dataset) {
	t.Helper()
	d := dataset.GPrime(1500, 0.1, 7)
	f, err := gbdt.Train(d, gbdt.Params{NumTrees: 40, NumLeaves: 31, Seed: 2})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	return f, d
}

// TestValuesFlatMatchesReference: the arena walk reproduces the
// allocating recursion bitwise — φ and base — on a trained forest and on
// random fixtures (which include root-only trees and repeated features).
func TestValuesFlatMatchesReference(t *testing.T) {
	f, d := trainedShapForest(t)
	check := func(name string, fl *forest.Flat, x []float64) {
		t.Helper()
		phi, base := ValuesFlat(fl, x)
		wantPhi, wantBase := referenceValues(fl, x)
		if math.Float64bits(base) != math.Float64bits(wantBase) {
			t.Fatalf("%s: base = %v, reference %v", name, base, wantBase)
		}
		for i := range wantPhi {
			if math.Float64bits(phi[i]) != math.Float64bits(wantPhi[i]) {
				t.Fatalf("%s: φ[%d] = %v, reference %v", name, i, phi[i], wantPhi[i])
			}
		}
	}
	fl := f.Flat()
	for i, x := range d.X[:200] {
		check("trained row "+strconv.Itoa(i), fl, x)
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		rf := randomForestFixture(r, 2+r.Intn(4), 1+r.Intn(4), 1+r.Intn(6))
		x := make([]float64, rf.NumFeatures)
		for j := range x {
			x[j] = r.Float64()
		}
		check("fixture seed "+strconv.FormatInt(seed, 10), rf.Flat(), x)
	}
}

// TestValuesFlatAllocs gates the arena layout deterministically: a call
// allocates φ and the path arena, never per node.
func TestValuesFlatAllocs(t *testing.T) {
	f, d := trainedShapForest(t)
	fl := f.Flat()
	x := d.X[3]
	if n := testing.AllocsPerRun(50, func() { ValuesFlat(fl, x) }); n > 2 {
		t.Fatalf("ValuesFlat allocates %v times per call, want ≤ 2", n)
	}
}

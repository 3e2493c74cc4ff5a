package sampling

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
)

// sigmoidForest trains a small forest on the Fig. 3 sigmoid toy so tests
// exercise realistic threshold distributions (dense near 0.5).
func sigmoidForest(t *testing.T) *forest.Forest {
	t.Helper()
	ds := dataset.SigmoidToy(2000, 0.05, 1)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 50, NumLeaves: 8, LearningRate: 0.2, Seed: 1})
	if err != nil {
		t.Fatalf("training sigmoid forest: %v", err)
	}
	return f
}

func TestBuildDomainsAllStrategies(t *testing.T) {
	f := sigmoidForest(t)
	for _, s := range Strategies {
		d, err := BuildDomains(f, []int{0}, Config{Strategy: s, K: 15, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		pts := d.Points[0]
		if len(pts) == 0 {
			t.Fatalf("%s: empty domain", s)
		}
		if !sort.Float64sAreSorted(pts) && s != KMeans {
			// k-means centroids are sorted by construction too, but keep
			// the error message informative either way.
			t.Errorf("%s: domain not sorted: %v", s, pts)
		}
		if s != AllThresholds && len(pts) > 15 {
			t.Errorf("%s: %d points exceed K=15", s, len(pts))
		}
	}
}

func TestAllThresholdsMidpointsAndExtension(t *testing.T) {
	// Hand-built forest with thresholds {0.2, 0.4, 0.8} on feature 0.
	f := forestWithThresholds([]float64{0.2, 0.4, 0.8})
	d, err := BuildDomains(f, []int{0}, Config{Strategy: AllThresholds})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	pts := d.Points[0]
	// ε = 0.05·(0.8−0.2) = 0.03 → endpoints 0.17 and 0.83; midpoints 0.3, 0.6.
	want := []float64{0.17, 0.3, 0.6, 0.83}
	if len(pts) != len(want) {
		t.Fatalf("points = %v, want %v", pts, want)
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-12 {
			t.Errorf("points[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

// forestWithThresholds builds a chain of stumps with the given thresholds
// on feature 0.
func forestWithThresholds(th []float64) *forest.Forest {
	f := &forest.Forest{NumFeatures: 1, Objective: forest.Regression}
	for _, v := range th {
		f.Trees = append(f.Trees, forest.Tree{Nodes: []forest.Node{
			{Feature: 0, Threshold: v, Left: 1, Right: 2, Gain: 1, Cover: 10},
			{Left: -1, Right: -1, Value: 0, Cover: 5},
			{Left: -1, Right: -1, Value: 1, Cover: 5},
		}})
	}
	return f
}

func TestAllThresholdsDuplicatesCollapse(t *testing.T) {
	f := forestWithThresholds([]float64{0.5, 0.5, 0.5, 0.7})
	d, err := BuildDomains(f, []int{0}, Config{Strategy: AllThresholds})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	// Distinct thresholds {0.5, 0.7} → midpoint 0.6 plus two endpoints.
	if len(d.Points[0]) != 3 {
		t.Errorf("points = %v, want 3 values", d.Points[0])
	}
}

func TestSingleThresholdFeature(t *testing.T) {
	f := forestWithThresholds([]float64{0.5})
	d, err := BuildDomains(f, []int{0}, Config{Strategy: AllThresholds})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	pts := d.Points[0]
	if len(pts) != 2 {
		t.Fatalf("points = %v, want 2 (both sides of the split)", pts)
	}
	if !(pts[0] < 0.5 && pts[1] > 0.5) {
		t.Errorf("points %v must straddle the threshold", pts)
	}
}

func TestKQuantileFollowsDensity(t *testing.T) {
	// 90 thresholds near 0.5, 10 spread out: quantile points should
	// concentrate near 0.5.
	var th []float64
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 90; i++ {
		th = append(th, 0.5+0.01*r.NormFloat64())
	}
	for i := 0; i < 10; i++ {
		th = append(th, r.Float64())
	}
	f := forestWithThresholds(th)
	d, err := BuildDomains(f, []int{0}, Config{Strategy: KQuantile, K: 10})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	near := 0
	for _, p := range d.Points[0] {
		if math.Abs(p-0.5) < 0.05 {
			near++
		}
	}
	if near < 5 {
		t.Errorf("only %d/%d quantile points near the dense region", near, len(d.Points[0]))
	}
}

func TestEquiWidthIgnoresDensity(t *testing.T) {
	f := sigmoidForest(t)
	d, err := BuildDomains(f, []int{0}, Config{Strategy: EquiWidth, K: 11})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	pts := d.Points[0]
	if len(pts) != 11 {
		t.Fatalf("got %d points, want 11", len(pts))
	}
	// Spacing must be uniform.
	step := pts[1] - pts[0]
	for i := 2; i < len(pts); i++ {
		if math.Abs((pts[i]-pts[i-1])-step) > 1e-9 {
			t.Errorf("non-uniform spacing at %d", i)
		}
	}
}

func TestEquiSizeAveragesRuns(t *testing.T) {
	f := forestWithThresholds([]float64{1, 2, 3, 4, 5, 6})
	d, err := BuildDomains(f, []int{0}, Config{Strategy: EquiSize, K: 3})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	want := []float64{1.5, 3.5, 5.5}
	pts := d.Points[0]
	if len(pts) != 3 {
		t.Fatalf("points = %v, want %v", pts, want)
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-12 {
			t.Errorf("points[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestKMeansDomainRespectsK(t *testing.T) {
	f := sigmoidForest(t)
	d, err := BuildDomains(f, []int{0}, Config{Strategy: KMeans, K: 7, Seed: 2})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	if len(d.Points[0]) != 7 {
		t.Errorf("got %d centroids, want 7", len(d.Points[0]))
	}
}

func TestBuildDomainsErrors(t *testing.T) {
	f := forestWithThresholds([]float64{0.5})
	if _, err := BuildDomains(f, []int{0}, Config{Strategy: KQuantile}); err == nil {
		t.Error("accepted K=0 for k-quantile")
	}
	if _, err := BuildDomains(f, []int{0}, Config{Strategy: "bogus", K: 5}); err == nil {
		t.Error("accepted unknown strategy")
	}
	// Feature 1 doesn't exist in splits.
	f2 := &forest.Forest{NumFeatures: 2, Objective: forest.Regression, Trees: f.Trees}
	if _, err := BuildDomains(f2, []int{1}, Config{Strategy: AllThresholds}); err == nil {
		t.Error("accepted feature with no thresholds")
	}
}

func TestSampleRowUsesFillForUnselected(t *testing.T) {
	// Two-feature forest; select only feature 0.
	f := &forest.Forest{NumFeatures: 2, Objective: forest.Regression}
	f.Trees = append(f.Trees, forest.Tree{Nodes: []forest.Node{
		{Feature: 0, Threshold: 0.5, Left: 1, Right: 2, Gain: 1, Cover: 10},
		{Left: -1, Right: -1, Value: 0, Cover: 5},
		{Left: -1, Right: -1, Value: 1, Cover: 5},
	}})
	f.Trees = append(f.Trees, forest.Tree{Nodes: []forest.Node{
		{Feature: 1, Threshold: 0.8, Left: 1, Right: 2, Gain: 1, Cover: 10},
		{Left: -1, Right: -1, Value: 0, Cover: 5},
		{Left: -1, Right: -1, Value: 1, Cover: 5},
	}})
	d, err := BuildDomains(f, []int{0}, Config{Strategy: AllThresholds})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		row := make([]float64, d.NumFeatures)
		d.SampleRow(row, rng)
		if row[1] != 0.8 { // median of feature 1's single threshold
			t.Fatalf("unselected feature = %v, want fill 0.8", row[1])
		}
	}
}

func TestGenerateLabelsWithForest(t *testing.T) {
	f := sigmoidForest(t)
	d, err := BuildDomains(f, []int{0}, Config{Strategy: EquiSize, K: 30})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	ds := Generate(f, d, 500, 7)
	if ds.NumRows() != 500 {
		t.Fatalf("rows = %d, want 500", ds.NumRows())
	}
	for i, x := range ds.X {
		if ds.Y[i] != f.Predict(x) {
			t.Fatal("label is not the forest prediction")
		}
	}
	if ds.Task != dataset.Regression {
		t.Errorf("task = %v, want regression", ds.Task)
	}
}

func TestGenerateClassificationTask(t *testing.T) {
	f := forestWithThresholds([]float64{0.5})
	f.Objective = forest.BinaryLogistic
	d, err := BuildDomains(f, []int{0}, Config{Strategy: AllThresholds})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	ds := Generate(f, d, 50, 1)
	if ds.Task != dataset.Classification {
		t.Errorf("task = %v, want classification", ds.Task)
	}
	for _, y := range ds.Y {
		if y < 0 || y > 1 {
			t.Fatalf("probability label %v outside [0,1]", y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f := sigmoidForest(t)
	d, _ := BuildDomains(f, []int{0}, Config{Strategy: KQuantile, K: 10})
	a := Generate(f, d, 100, 5)
	b := Generate(f, d, 100, 5)
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same-seed generation differs")
		}
	}
}

func TestRandomStrategySamplesContinuously(t *testing.T) {
	f := forestWithThresholds([]float64{0.2, 0.8})
	d, err := BuildDomains(f, []int{0}, Config{Strategy: Random, Seed: 1})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	seen := map[float64]bool{}
	lo, hi := d.Ranges[0][0], d.Ranges[0][1]
	for i := 0; i < 200; i++ {
		row := make([]float64, d.NumFeatures)
		d.SampleRow(row, rng)
		v := row[0]
		if v < lo || v > hi {
			t.Fatalf("sample %v outside [%v, %v]", v, lo, hi)
		}
		seen[v] = true
	}
	if len(seen) < 190 {
		t.Errorf("continuous sampling produced only %d distinct values", len(seen))
	}
}

// Property: generated rows take values only from the domains — selected
// features from their candidate points, unselected features their fill
// value.
func TestGenerateClosedOverDomainsProperty(t *testing.T) {
	f := sigmoidForest(t)
	prop := func(seed int64) bool {
		for _, s := range Strategies {
			d, err := BuildDomains(f, []int{0}, Config{Strategy: s, K: 12, Seed: seed})
			if err != nil {
				return false
			}
			allowed := map[float64]bool{}
			for _, p := range d.Points[0] {
				allowed[p] = true
			}
			ds := Generate(f, d, 50, seed)
			for _, row := range ds.X {
				if !allowed[row[0]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDegenerateDomainFallsBackToStraddle(t *testing.T) {
	// A one-hot-style feature with a single distinct threshold must not
	// collapse to one point under K-Quantile/K-Means/Equi-Size.
	f := forestWithThresholds([]float64{0.5, 0.5, 0.5})
	for _, s := range []Strategy{KQuantile, KMeans, EquiSize} {
		d, err := BuildDomains(f, []int{0}, Config{Strategy: s, K: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		pts := d.Points[0]
		if len(pts) < 2 {
			t.Fatalf("%s: degenerate domain %v", s, pts)
		}
		var below, above bool
		for _, p := range pts {
			if p < 0.5 {
				below = true
			}
			if p > 0.5 {
				above = true
			}
		}
		if !below || !above {
			t.Errorf("%s: domain %v does not straddle the split", s, pts)
		}
	}
}

// Regression test: a categorical-like feature (few distinct thresholds)
// must keep a small domain under every strategy when
// CategoricalThreshold is set — Equi-Width at K=4500 once produced a
// 4500-point domain for such a feature, which became a 4500-level factor
// term and an hours-long GAM fit.
func TestCategoricalFeaturesGetThresholdDomains(t *testing.T) {
	// 7 distinct thresholds, heavily duplicated (like number_of_elements).
	var th []float64
	for i := 0; i < 50; i++ {
		th = append(th, float64(1+i%7)+0.5)
	}
	f := forestWithThresholds(th)
	for _, s := range []Strategy{KQuantile, EquiWidth, KMeans, EquiSize} {
		d, err := BuildDomains(f, []int{0}, Config{
			Strategy: s, K: 4500, Seed: 1, CategoricalThreshold: 10,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := len(d.Points[0]); got > 8 {
			t.Errorf("%s: categorical feature got %d domain points, want ≤ 8 (cells)", s, got)
		}
	}
	// Without the threshold, Equi-Width keeps its K points (continuous
	// treatment).
	d, err := BuildDomains(f, []int{0}, Config{Strategy: EquiWidth, K: 100, Seed: 1})
	if err != nil {
		t.Fatalf("BuildDomains: %v", err)
	}
	if len(d.Points[0]) != 100 {
		t.Errorf("unconstrained equi-width domain = %d points, want 100", len(d.Points[0]))
	}
}

// Property: every discrete strategy's domain points lie within the
// ε-extended threshold range.
func TestDomainsWithinRangeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		th := make([]float64, n)
		for i := range th {
			th[i] = r.NormFloat64() * 5
		}
		f := forestWithThresholds(th)
		for _, s := range Strategies {
			d, err := BuildDomains(f, []int{0}, Config{Strategy: s, K: 1 + r.Intn(12), Seed: seed})
			if err != nil {
				return false
			}
			lo, hi := d.Ranges[0][0], d.Ranges[0][1]
			for _, p := range d.Points[0] {
				if p < lo-1e-9 || p > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGenerateMatchesFullForestLabeling pins specialized D* labeling to
// the full forest: for both objectives and for a discrete and the
// continuous strategy, every row is the SampleRow sequence of the seed,
// capped to its own width within the slab, and every label is bitwise
// the pointer walk's prediction. F′ is a minority of the used features,
// so the specialized forest really is smaller.
func TestGenerateMatchesFullForestLabeling(t *testing.T) {
	fixtures := []struct {
		name string
		data *dataset.Dataset
		obj  forest.Objective
	}{
		{"regression", dataset.SuperconductivityN(1500, 3), forest.Regression},
		{"binary_logistic", dataset.CensusN(1500, 3), forest.BinaryLogistic},
	}
	for _, fx := range fixtures {
		f, err := gbdt.Train(fx.data, gbdt.Params{NumTrees: 40, NumLeaves: 12, Objective: fx.obj, Seed: 2})
		if err != nil {
			t.Fatalf("%s: training: %v", fx.name, err)
		}
		used := f.UsedFeatures()
		if len(used) < 8 {
			t.Fatalf("%s: forest uses only %d features", fx.name, len(used))
		}
		selected := []int{used[len(used)-1], used[0], used[len(used)/2]}
		for _, s := range []Strategy{EquiSize, Random} {
			d, err := BuildDomains(f, selected, Config{Strategy: s, K: 20, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: BuildDomains: %v", fx.name, s, err)
			}
			if sp := f.Flat().Specialize(d.Features, d.Fill); sp.NumNodes() >= f.NumNodes() {
				t.Fatalf("%s/%s: specialization kept %d of %d nodes", fx.name, s, sp.NumNodes(), f.NumNodes())
			}
			ds := Generate(f, d, 700, 9)
			rng := rand.New(rand.NewSource(9))
			want := make([]float64, f.NumFeatures)
			for i, x := range ds.X {
				if len(x) != f.NumFeatures || cap(x) != f.NumFeatures {
					t.Fatalf("%s/%s: row %d has len %d cap %d, want %d", fx.name, s, i, len(x), cap(x), f.NumFeatures)
				}
				d.SampleRow(want, rng)
				for j, v := range want {
					if math.Float64bits(x[j]) != math.Float64bits(v) {
						t.Fatalf("%s/%s: row %d feature %d = %v, SampleRow gives %v", fx.name, s, i, j, x[j], v)
					}
				}
				if got, want := ds.Y[i], f.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: row %d label %v, full forest %v", fx.name, s, i, got, want)
				}
			}
		}
	}
}

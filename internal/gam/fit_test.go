package gam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gef/internal/stats"
)

// gen1D builds (xs, y) from a univariate function over [0,1] plus noise.
func gen1D(n int, f func(float64) float64, noise float64, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.Float64()
		xs[i] = []float64{x}
		y[i] = f(x) + noise*r.NormFloat64()
	}
	return xs, y
}

// logitClasses draws n uniform x with Bernoulli labels of probability
// sigmoid(slope·(x − 0.5)).
func logitClasses(n int, slope float64, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := range xs {
		x := r.Float64()
		xs[i] = []float64{x}
		if r.Float64() < sigmoid(slope*(x-0.5)) {
			y[i] = 1
		}
	}
	return xs, y
}

func TestFitRecoversLinear(t *testing.T) {
	xs, y := gen1D(500, func(x float64) float64 { return 2*x + 1 }, 0.05, 1)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		got := m.Predict([]float64{x})
		want := 2*x + 1
		if math.Abs(got-want) > 0.1 {
			t.Errorf("Predict(%v) = %v, want ≈ %v", x, got, want)
		}
	}
}

func TestFitRecoversSin(t *testing.T) {
	xs, y := gen1D(2000, func(x float64) float64 { return math.Sin(6 * x) }, 0.1, 2)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0, NumBasis: 16}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var truth, pred []float64
	for _, x := range xs {
		truth = append(truth, math.Sin(6*x[0]))
		pred = append(pred, m.Predict(x))
	}
	if r2 := stats.R2(pred, truth); r2 < 0.98 {
		t.Errorf("R² vs noiseless truth = %v, want ≥ 0.98", r2)
	}
}

func TestFitSmoothsNoise(t *testing.T) {
	// Pure noise: GCV should choose heavy smoothing → small edf, flat fit.
	xs, y := gen1D(800, func(x float64) float64 { return 0 }, 1, 3)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.Report().EDF > 6 {
		t.Errorf("edf = %v on pure noise, want strong smoothing", m.Report().EDF)
	}
	// Predictions should stay near zero.
	for _, x := range []float64{0.2, 0.5, 0.8} {
		if math.Abs(m.Predict([]float64{x})) > 0.3 {
			t.Errorf("Predict(%v) = %v on pure noise", x, m.Predict([]float64{x}))
		}
	}
}

func TestFitAdditiveTwoTerms(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 3000
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		xs[i] = []float64{a, b}
		y[i] = a + math.Sin(2*math.Pi*b) + 0.05*r.NormFloat64()
	}
	m, err := Fit(Spec{Terms: []TermSpec{
		{Kind: Spline, Feature: 0},
		{Kind: Spline, Feature: 1, NumBasis: 14},
	}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Term 1 must capture the sinusoid: compare shapes at a few points.
	x := []float64{0.5, 0}
	ref := m.TermValue(1, []float64{0.5, 0.25}) // sin peak
	x[1] = 0.75                                 // sin trough
	trough := m.TermValue(1, x)
	if ref < 0.7 || trough > -0.7 {
		t.Errorf("sin term peak %v / trough %v, want ≈ ±1", ref, trough)
	}
	// Centering: term means over training data ≈ 0.
	for ti := 0; ti < m.NumTerms(); ti++ {
		var s float64
		for _, row := range xs {
			s += m.TermValue(ti, row)
		}
		if mean := s / float64(n); math.Abs(mean) > 0.02 {
			t.Errorf("term %d training mean = %v, want ≈ 0", ti, mean)
		}
	}
	// Intercept ≈ E[y].
	if math.Abs(m.Intercept()-stats.Mean(y)) > 0.05 {
		t.Errorf("intercept = %v, want ≈ %v", m.Intercept(), stats.Mean(y))
	}
}

func TestExplainDecomposesPrediction(t *testing.T) {
	xs, y := gen1D(400, func(x float64) float64 { return x * x }, 0.05, 5)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	x := []float64{0.7}
	intercept, contribs := m.Explain(x)
	var sum float64 = intercept
	for _, c := range contribs {
		sum += c.Value
	}
	if math.Abs(sum-m.PredictRaw(x)) > 1e-10 {
		t.Errorf("explanation sums to %v, prediction is %v", sum, m.PredictRaw(x))
	}
}

func TestExplainSortsByMagnitude(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 1500
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		xs[i] = []float64{a, b}
		y[i] = 5*a + 0.1*b + 0.01*r.NormFloat64()
	}
	m, err := Fit(Spec{Terms: []TermSpec{
		{Kind: Spline, Feature: 0},
		{Kind: Spline, Feature: 1},
	}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	_, contribs := m.Explain([]float64{0.9, 0.9})
	if contribs[0].Spec.Feature != 0 {
		t.Errorf("dominant feature should sort first, got feature %d", contribs[0].Spec.Feature)
	}
}

func TestFactorTermRecoversLevels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 900
	xs := make([][]float64, n)
	y := make([]float64, n)
	effects := map[float64]float64{0: -1, 1: 0.5, 2: 2}
	for i := 0; i < n; i++ {
		lv := float64(r.Intn(3))
		xs[i] = []float64{lv}
		y[i] = effects[lv] + 0.05*r.NormFloat64()
	}
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Factor, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Differences between level effects must match (absolute values are
	// centered).
	d01 := m.TermValue(0, []float64{1}) - m.TermValue(0, []float64{0})
	d12 := m.TermValue(0, []float64{2}) - m.TermValue(0, []float64{1})
	if math.Abs(d01-1.5) > 0.1 || math.Abs(d12-1.5) > 0.1 {
		t.Errorf("level differences = %v, %v, want 1.5, 1.5", d01, d12)
	}
	// An unseen value maps to its nearest observed level: 7 → level 2.
	if v, want := m.TermValue(0, []float64{7}), m.TermValue(0, []float64{2}); v != want {
		t.Errorf("unseen value contribution = %v, want nearest level's %v", v, want)
	}
	// Midpoint ties resolve to the lower level.
	if v, want := m.TermValue(0, []float64{0.5}), m.TermValue(0, []float64{0}); v != want {
		t.Errorf("tie contribution = %v, want lower level's %v", v, want)
	}
}

func TestTensorTermCapturesInteraction(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n := 4000
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		xs[i] = []float64{a, b}
		y[i] = 4*(a-0.5)*(b-0.5) + 0.05*r.NormFloat64()
	}
	// Splines alone cannot represent the product term.
	mAdd, err := Fit(Spec{Terms: []TermSpec{
		{Kind: Spline, Feature: 0}, {Kind: Spline, Feature: 1},
	}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit additive: %v", err)
	}
	mTen, err := Fit(Spec{Terms: []TermSpec{
		{Kind: Spline, Feature: 0}, {Kind: Spline, Feature: 1},
		{Kind: Tensor, Feature: 0, Feature2: 1, NumBasis: 6},
	}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit tensor: %v", err)
	}
	truth := make([]float64, n)
	for i, row := range xs {
		truth[i] = 4 * (row[0] - 0.5) * (row[1] - 0.5)
	}
	r2Add := stats.R2(mAdd.PredictBatch(xs), truth)
	r2Ten := stats.R2(mTen.PredictBatch(xs), truth)
	if r2Add > 0.3 {
		t.Errorf("additive model R² = %v on a pure interaction, expected failure", r2Add)
	}
	if r2Ten < 0.9 {
		t.Errorf("tensor model R² = %v, want ≥ 0.9", r2Ten)
	}
}

func TestFitLogitClassification(t *testing.T) {
	xs, y := logitClasses(2000, 8, 9)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}, Link: Logit}, xs, y,
		Options{Lambdas: LogSpace(1e-2, 1e4, 9)})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Predicted probabilities in [0,1] and monotone-ish across the range.
	p1 := m.Predict([]float64{0.1})
	p9 := m.Predict([]float64{0.9})
	if p1 < 0 || p9 > 1 {
		t.Fatalf("probabilities out of range: %v, %v", p1, p9)
	}
	if p1 > 0.3 || p9 < 0.7 {
		t.Errorf("probabilities %v/%v fail to track the logistic truth", p1, p9)
	}
	if acc := stats.Accuracy(m.PredictBatch(xs), y); acc < 0.75 {
		t.Errorf("accuracy = %v, want ≥ 0.75", acc)
	}
}

func TestFitLogitOnProbabilities(t *testing.T) {
	// Distillation scenario: targets are probabilities, not hard labels.
	xs, y := gen1D(1200, func(x float64) float64 { return sigmoid(6 * (x - 0.5)) }, 0, 10)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}, Link: Logit}, xs, y,
		Options{Lambdas: LogSpace(1e-2, 1e4, 9)})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := sigmoid(6 * (x - 0.5))
		if got := m.Predict([]float64{x}); math.Abs(got-want) > 0.05 {
			t.Errorf("Predict(%v) = %v, want ≈ %v", x, got, want)
		}
	}
}

func TestFitErrors(t *testing.T) {
	xs, y := gen1D(50, func(x float64) float64 { return x }, 0, 11)
	cases := []struct {
		name string
		spec Spec
		xs   [][]float64
		y    []float64
	}{
		{"no terms", Spec{}, xs, y},
		{"bad link", Spec{Terms: []TermSpec{{Kind: Spline}}, Link: "probit"}, xs, y},
		{"feature out of range", Spec{Terms: []TermSpec{{Kind: Spline, Feature: 3}}}, xs, y},
		{"tensor self pair", Spec{Terms: []TermSpec{{Kind: Tensor, Feature: 0, Feature2: 0}}}, xs, y},
		{"bad kind", Spec{Terms: []TermSpec{{Kind: "wavelet"}}}, xs, y},
		{"length mismatch", Spec{Terms: []TermSpec{{Kind: Spline}}}, xs, y[:10]},
		{"too few rows", Spec{Terms: []TermSpec{{Kind: Spline, NumBasis: 30}}}, xs[:20], y[:20]},
	}
	for _, c := range cases {
		if _, err := Fit(c.spec, c.xs, c.y, Options{}); err == nil {
			t.Errorf("%s: Fit accepted invalid input", c.name)
		}
	}
	// Logit with out-of-range targets.
	badY := append([]float64(nil), y...)
	badY[0] = 2
	if _, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline}}, Link: Logit}, xs, badY, Options{}); err == nil {
		t.Error("logit accepted target outside [0,1]")
	}
}

func TestTermCurveWithCI(t *testing.T) {
	xs, y := gen1D(800, func(x float64) float64 { return math.Sin(4 * x) }, 0.1, 12)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	grid := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	c, err := m.TermCurve(0, grid, 0.95)
	if err != nil {
		t.Fatalf("TermCurve: %v", err)
	}
	for i := range grid {
		if c.SE[i] <= 0 || math.IsNaN(c.SE[i]) {
			t.Errorf("SE[%d] = %v, want > 0", i, c.SE[i])
		}
		if c.Lower[i] >= c.Y[i] || c.Upper[i] <= c.Y[i] {
			t.Errorf("interval [%v, %v] does not bracket %v", c.Lower[i], c.Upper[i], c.Y[i])
		}
	}
	// The curve should track sin(4x) − mean within the CI scale.
	for i, x := range grid {
		want := math.Sin(4*x) - meanSin4(xs)
		if math.Abs(c.Y[i]-want) > 0.15 {
			t.Errorf("curve(%v) = %v, want ≈ %v", x, c.Y[i], want)
		}
	}
}

func meanSin4(xs [][]float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Sin(4 * x[0])
	}
	return s / float64(len(xs))
}

func TestTermCurveErrors(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	n := 1000
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64()}
		y[i] = xs[i][0] * xs[i][1]
	}
	m, err := Fit(Spec{Terms: []TermSpec{
		{Kind: Tensor, Feature: 0, Feature2: 1, NumBasis: 5},
	}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := m.TermCurve(0, []float64{0.5}, 0.95); err == nil {
		t.Error("TermCurve accepted a tensor term")
	}
	surf, err := m.TermSurface(0, []float64{0.2, 0.8}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatalf("TermSurface: %v", err)
	}
	if len(surf.Z) != 2 || len(surf.Z[0]) != 2 {
		t.Errorf("surface shape wrong")
	}
	if _, err := m.TermSurface(0, nil, []float64{1}); err == nil {
		t.Error("TermSurface accepted empty grid")
	}
}

func TestTermRangeAndLevels(t *testing.T) {
	xs, y := gen1D(300, func(x float64) float64 { return x }, 0.01, 14)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	lo, hi := m.TermRange(0)
	if lo > 0.1 || hi < 0.9 {
		t.Errorf("term range [%v, %v] should cover the data", lo, hi)
	}
}

func TestReportContents(t *testing.T) {
	xs, y := gen1D(300, func(x float64) float64 { return x }, 0.05, 15)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y,
		Options{Lambdas: LogSpace(1e-3, 1e3, 7)})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	rep := m.Report()
	if len(rep.Lambdas) != 7 || len(rep.GCVs) != 7 {
		t.Errorf("grid sizes %d/%d, want 7/7", len(rep.Lambdas), len(rep.GCVs))
	}
	if rep.Scale <= 0 {
		t.Errorf("scale = %v, want > 0", rep.Scale)
	}
	if rep.EDF <= 0 || rep.EDF >= float64(len(xs)) {
		t.Errorf("edf = %v out of range", rep.EDF)
	}
	// Chosen GCV is the grid minimum.
	for _, g := range rep.GCVs {
		if g < rep.GCV-1e-15 {
			t.Errorf("grid GCV %v below chosen %v", g, rep.GCV)
		}
	}
}

// Property: effective degrees of freedom decrease monotonically in λ —
// the defining behaviour of the smoothing parameter.
func TestEDFMonotoneInLambda(t *testing.T) {
	xs, y := gen1D(600, func(x float64) float64 { return math.Sin(5 * x) }, 0.1, 16)
	prev := math.Inf(1)
	for _, lam := range []float64{1e-4, 1e-2, 1, 100, 1e4, 1e6} {
		m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y,
			Options{Lambdas: []float64{lam}})
		if err != nil {
			t.Fatalf("Fit(λ=%v): %v", lam, err)
		}
		edf := m.Report().EDF
		if edf > prev+1e-9 {
			t.Errorf("edf %v at λ=%v exceeds edf %v at smaller λ", edf, lam, prev)
		}
		prev = edf
	}
	// At huge λ the spline is nearly linear: edf ≈ 2–3 (intercept +
	// penalty null space).
	if prev > 4 {
		t.Errorf("edf at λ=1e6 is %v, expected near the penalty null space dimension", prev)
	}
}

// Property: at large λ the fitted spline degenerates toward the least-
// squares line (second-difference penalty null space).
func TestHeavySmoothingYieldsLine(t *testing.T) {
	xs, y := gen1D(800, func(x float64) float64 { return math.Sin(8 * x) }, 0.05, 18)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y,
		Options{Lambdas: []float64{1e8}})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Check linearity: midpoint prediction equals the average of the
	// endpoint predictions.
	p0 := m.Predict([]float64{0.1})
	p1 := m.Predict([]float64{0.9})
	pm := m.Predict([]float64{0.5})
	if math.Abs(pm-(p0+p1)/2) > 0.02 {
		t.Errorf("heavily smoothed fit not linear: f(0.1)=%v f(0.5)=%v f(0.9)=%v", p0, pm, p1)
	}
}

// The GCV optimum must track noise: noisier data → larger chosen λ
// (comparing the same signal at two noise levels).
func TestGCVChoosesMoreSmoothingForNoisierData(t *testing.T) {
	grid := LogSpace(1e-4, 1e6, 21)
	quiet, yq := gen1D(1500, func(x float64) float64 { return math.Sin(4 * x) }, 0.02, 20)
	noisy, yn := gen1D(1500, func(x float64) float64 { return math.Sin(4 * x) }, 0.8, 20)
	mq, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, quiet, yq, Options{Lambdas: grid})
	if err != nil {
		t.Fatalf("Fit quiet: %v", err)
	}
	mn, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, noisy, yn, Options{Lambdas: grid})
	if err != nil {
		t.Fatalf("Fit noisy: %v", err)
	}
	if mn.Report().EDF >= mq.Report().EDF {
		t.Errorf("noisy edf %v should be below quiet edf %v",
			mn.Report().EDF, mq.Report().EDF)
	}
}

// Property: logit-link predictions stay in [0,1] and are finite for any
// finite input, including points far outside the training domain (the
// basis clamps to its boundary).
func TestLogitPredictionsBoundedProperty(t *testing.T) {
	xs, y := logitClasses(800, 6, 25)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}, Link: Logit}, xs, y,
		Options{Lambdas: []float64{0.1, 10}})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	prop := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		p := m.Predict([]float64{v})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDevianceExplained(t *testing.T) {
	// Low-noise sine: nearly all variance explained; pure noise: ≈ none.
	xs, y := gen1D(1000, func(x float64) float64 { return math.Sin(5 * x) }, 0.02, 22)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xs, y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if de := m.Report().DevExplained; de < 0.95 {
		t.Errorf("deviance explained = %v on near-noiseless data", de)
	}
	xsN, yN := gen1D(1000, func(x float64) float64 { return 0 }, 1, 23)
	mN, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}, xsN, yN, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if de := mN.Report().DevExplained; de > 0.1 {
		t.Errorf("deviance explained = %v on pure noise", de)
	}
}

func TestLogSpace(t *testing.T) {
	v := LogSpace(1, 100, 3)
	if math.Abs(v[0]-1) > 1e-12 || math.Abs(v[1]-10) > 1e-9 || math.Abs(v[2]-100) > 1e-9 {
		t.Errorf("LogSpace = %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid LogSpace")
		}
	}()
	LogSpace(0, 1, 3)
}

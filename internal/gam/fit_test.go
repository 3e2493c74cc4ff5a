package gam

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gef/internal/dataset"
	"gef/internal/linalg"
	"gef/internal/obs"
	"gef/internal/robust"
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

// refPoint is one λ of the reference search's GCV trace.
type refPoint struct{ lambda, gcv, edf float64 }

// refSearch is the per-λ factorization search that searchLambda's
// single decomposition replaced, kept as a test oracle: for every λ it
// factorizes XᵀWX + λS, reads the EDF tr((XᵀWX+λS)⁻¹XᵀWX) off p
// solves and the RSS off the normal-equation identity
// zᵀWz − 2βᵀXᵀWz + βᵀXᵀWXβ. It returns the trace and the chosen λ's β
// and factor.
func refSearch(t *testing.T, xtx *linalg.Matrix, xtz []float64, ztz float64, n int, s *linalg.Matrix, lambdas []float64) ([]refPoint, float64, []float64, *linalg.Cholesky) {
	t.Helper()
	p := xtx.Rows
	nf := float64(n)
	var trace []refPoint
	bestGCV, bestLambda := math.Inf(1), 0.0
	var bestBeta []float64
	var bestChol *linalg.Cholesky
	col := make([]float64, p)
	for _, lambda := range lambdas {
		ch, err := linalg.FactorizeSPD(penalizedSystem(xtx, s, lambda, 0))
		if err != nil {
			t.Fatalf("reference factorization at λ=%g: %v", lambda, err)
		}
		beta := ch.Solve(xtz)
		var edf float64
		for j := 0; j < p; j++ {
			for i := range col {
				col[i] = xtx.At(i, j)
			}
			ch.SolveInPlace(col)
			edf += col[j]
		}
		rss := math.Max(ztz-2*linalg.Dot(beta, xtz)+quadForm(xtx, beta), 0)
		denom := nf - edf
		if denom <= 0 {
			continue
		}
		gcv := nf * rss / (denom * denom)
		trace = append(trace, refPoint{lambda, gcv, edf})
		if gcv < bestGCV {
			bestGCV, bestLambda, bestBeta, bestChol = gcv, lambda, beta, ch
		}
	}
	return trace, bestLambda, bestBeta, bestChol
}

// relDiff is |a−b| relative to max(|a|, |b|, 1e-300).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// checkSearchAgainstReference runs searchLambda on one set of normal
// equations and requires the reference search's λ choice, its GCV trace
// and per-λ EDF to 1e-9 relative, and its β and Cholesky factor bitwise
// at the chosen λ. It returns the search's β.
func checkSearchAgainstReference(t *testing.T, name string, xtx *linalg.Matrix, xtz []float64, ztz float64, n int, s *linalg.Matrix, opt Options) []float64 {
	t.Helper()
	ms := obs.NewMemorySink()
	obs.SetSink(ms)
	ctx, root := obs.Start(context.Background(), "test.search")
	got, err := searchLambda(ctx, xtx, xtz, ztz, n, s, opt, -1)
	root.End()
	obs.SetSink(nil)
	if err != nil {
		t.Fatalf("%s: searchLambda: %v", name, err)
	}
	var events []refPoint
	for _, sp := range ms.Spans() {
		if sp.Name != "gam.gcv" {
			continue
		}
		var ev refPoint
		for _, a := range sp.Attrs {
			switch a.Key {
			case "lambda":
				ev.lambda = a.Value.(float64)
			case "gcv":
				ev.gcv = a.Value.(float64)
			case "edf":
				ev.edf = a.Value.(float64)
			}
		}
		events = append(events, ev)
	}
	trace, lambda, beta, chol := refSearch(t, xtx, xtz, ztz, n, s, opt.Lambdas)
	if len(events) != len(trace) || len(got.report.GCVs) != len(trace) {
		t.Fatalf("%s: %d gcv events and %d GCVs, reference has %d", name, len(events), len(got.report.GCVs), len(trace))
	}
	// Both searches read RSS off the normal equations, as a difference
	// from zᵀWz, and EDF off a system whose redundant directions only
	// the relative ridge ridgeScale pins down. Each quantity therefore
	// carries a rounding floor that no float64 method escapes — on a
	// near-interpolating working model the reference's own GCV is off by
	// 1e-7 relative to exact arithmetic — so agreement is required to
	// 1e-9 relative plus that floor, p rounding units of the cancelled
	// magnitude: p·eps·zᵀWz for RSS, p·eps/ridgeScale for EDF.
	const eps = 0x1p-52
	nf, pf := float64(n), float64(xtx.Rows)
	edfFloor := pf * eps / ridgeScale
	for g, ref := range trace {
		ev := events[g]
		//lint:ignore floatcmp both traces walk the same grid values in order
		if ev.lambda != ref.lambda || got.report.Lambdas[g] != ref.lambda {
			t.Fatalf("%s: grid point %d is λ=%g, reference λ=%g", name, g, ev.lambda, ref.lambda)
		}
		denom := nf - ref.edf
		gcvFloor := nf * pf * eps * math.Abs(ztz) / (denom * denom)
		if d := math.Abs(got.report.GCVs[g] - ref.gcv); !(d <= 1e-9*math.Abs(ref.gcv)+gcvFloor) {
			t.Errorf("%s: λ=%g GCV %v vs reference %v (rel %g)", name, ref.lambda, got.report.GCVs[g], ref.gcv, relDiff(got.report.GCVs[g], ref.gcv))
		}
		if d := math.Abs(ev.edf - ref.edf); !(d <= 1e-9*math.Abs(ref.edf)+edfFloor) {
			t.Errorf("%s: λ=%g EDF %v vs reference %v (rel %g)", name, ref.lambda, ev.edf, ref.edf, relDiff(ev.edf, ref.edf))
		}
	}
	//lint:ignore floatcmp the λ choice must be the same grid value
	if got.report.Lambda != lambda {
		t.Fatalf("%s: chose λ=%g, reference chose λ=%g", name, got.report.Lambda, lambda)
	}
	for j := range beta {
		if math.Float64bits(got.beta[j]) != math.Float64bits(beta[j]) {
			t.Fatalf("%s: β[%d] = %v, reference %v", name, j, got.beta[j], beta[j])
		}
	}
	gotL, refL := got.chol.PackLower(), chol.PackLower()
	for k := range refL {
		if math.Float64bits(gotL[k]) != math.Float64bits(refL[k]) {
			t.Fatalf("%s: Cholesky factor entry %d = %v, reference %v", name, k, gotL[k], refL[k])
		}
	}
	return got.beta
}

// TestSearchLambdaMatchesPerLambdaReference pins the one-decomposition
// λ search to the per-λ factorization search on the gam fixtures:
// identity fits (splines, factor and tensor terms) and the working
// models of logit fits.
func TestSearchLambdaMatchesPerLambdaReference(t *testing.T) {
	robust.SetInjector(nil)
	type fixture struct {
		name string
		spec Spec
		xs   [][]float64
		y    []float64
		opt  Options
	}
	r := rand.New(rand.NewSource(4))
	two := make([][]float64, 3000)
	yTwo := make([]float64, len(two))
	yProd := make([]float64, len(two))
	for i := range two {
		a, b := r.Float64(), r.Float64()
		two[i] = []float64{a, b, float64(r.Intn(3))}
		yTwo[i] = a + math.Sin(2*math.Pi*b) + 0.05*r.NormFloat64() + 0.5*two[i][2]
		yProd[i] = 4*(a-0.5)*(b-0.5) + 0.05*r.NormFloat64()
	}
	oneSpline := Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}}
	mixed := Spec{Terms: []TermSpec{
		{Kind: Spline, Feature: 0},
		{Kind: Spline, Feature: 1, NumBasis: 14},
		{Kind: Factor, Feature: 2},
	}}
	tensor := Spec{Terms: []TermSpec{
		{Kind: Spline, Feature: 0}, {Kind: Spline, Feature: 1},
		{Kind: Tensor, Feature: 0, Feature2: 1, NumBasis: 6},
	}}
	var fixtures []fixture
	xs, y := gen1D(2000, func(x float64) float64 { return math.Sin(6 * x) }, 0.1, 2)
	fixtures = append(fixtures, fixture{"sin", Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0, NumBasis: 16}}}, xs, y, Options{}})
	xs, y = gen1D(800, func(x float64) float64 { return 0 }, 1, 3)
	fixtures = append(fixtures, fixture{"noise", oneSpline, xs, y, Options{}})
	xs, y = gen1D(1500, func(x float64) float64 { return math.Sin(4 * x) }, 0.02, 20)
	fixtures = append(fixtures, fixture{"quiet fine grid", oneSpline, xs, y, Options{Lambdas: LogSpace(1e-4, 1e6, 21)}})
	fixtures = append(fixtures,
		fixture{"splines and factor", mixed, two, yTwo, Options{}},
		fixture{"tensor", tensor, two, yProd, Options{}})
	xs, y = logitClasses(2000, 8, 9)
	fixtures = append(fixtures, fixture{"logit classification", Spec{Terms: oneSpline.Terms, Link: Logit}, xs, y, Options{}})
	xs, y = gen1D(1200, func(x float64) float64 { return sigmoid(6 * (x - 0.5)) }, 0, 10)
	fixtures = append(fixtures, fixture{"logit probabilities", Spec{Terms: oneSpline.Terms, Link: Logit}, xs, y, Options{}})
	ds := dataset.GPrime(600, 0.1, 23)
	yg := make([]float64, len(ds.Y))
	for i, v := range ds.Y {
		if v > 2.5 {
			yg[i] = 1
		}
	}
	fixtures = append(fixtures, fixture{"logit gprime", Spec{Link: Logit, Terms: []TermSpec{
		{Kind: Spline, Feature: 0}, {Kind: Spline, Feature: 1},
		{Kind: Tensor, Feature: 2, Feature2: 3, NumBasis: 5},
	}}, ds.X, yg, Options{}})

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			spec := fx.spec
			if spec.Link == "" {
				spec.Link = Identity
			}
			d, err := buildDesign(spec, fx.xs)
			if err != nil {
				t.Fatal(err)
			}
			s := d.penaltyMatrix()
			opt := fx.opt.withDefaults()
			if fx.spec.Link != Logit {
				xtx, xtz, ztz, err := accumulateNormal(context.Background(), d, nil, fx.y, 0)
				if err != nil {
					t.Fatal(err)
				}
				checkSearchAgainstReference(t, fx.name, xtx, xtz, ztz, d.n, s, opt)
				return
			}
			// Logit: the working models of the first P-IRLS iterates,
			// each taken at the previous search's β.
			eta := make([]float64, d.n)
			for i, yi := range fx.y {
				mu := 0.5*yi + 0.25
				eta[i] = math.Log(mu / (1 - mu))
			}
			w, z := make([]float64, d.n), make([]float64, d.n)
			for it := 0; it < 4; it++ {
				for i := range eta {
					mu := math.Min(math.Max(sigmoid(eta[i]), 1e-5), 1-1e-5)
					w[i] = mu * (1 - mu)
					z[i] = eta[i] + (fx.y[i]-mu)/w[i]
				}
				xtx, xtz, ztz, err := accumulateNormal(context.Background(), d, w, z, 0)
				if err != nil {
					t.Fatal(err)
				}
				beta := checkSearchAgainstReference(t, fmt.Sprintf("%s iteration %d", fx.name, it), xtx, xtz, ztz, d.n, s, opt)
				for i := range eta {
					eta[i] = d.rowDot(i, beta)
				}
			}
		})
	}
}

// TestPrefixFitMatchesStandaloneFit fits leading-terms prefixes of a
// spline+factor+tensor spec from one shared Design, in an order that
// both widens and narrows the accumulated XᵀX, and of a Design extended
// from a prefix by tensor terms, and requires each model to be bitwise
// equal to fitting that prefix spec alone, for both links.
func TestPrefixFitMatchesStandaloneFit(t *testing.T) {
	robust.SetInjector(nil)
	ds := dataset.GPrime(900, 0.1, 29)
	xs := make([][]float64, len(ds.X))
	for i, row := range ds.X {
		xs[i] = append(append([]float64(nil), row...), float64(i%4))
	}
	yBin := make([]float64, len(ds.Y))
	for i, v := range ds.Y {
		if v > 2.5 {
			yBin[i] = 1
		}
	}
	terms := []TermSpec{
		{Kind: Spline, Feature: 0}, {Kind: Spline, Feature: 1},
		{Kind: Factor, Feature: len(xs[0]) - 1}, {Kind: Spline, Feature: 2, NumBasis: 8},
		{Kind: Tensor, Feature: 0, Feature2: 1, NumBasis: 5},
	}
	opt := Options{Lambdas: LogSpace(1e-3, 1e4, 8)}
	for _, tc := range []struct {
		link Link
		y    []float64
	}{{Identity, ds.Y}, {Logit, yBin}} {
		shared := NewDesign(Spec{Terms: terms, Link: tc.link}, xs, tc.y)
		extra := []TermSpec{{Kind: Tensor, Feature: 1, Feature2: 2, NumBasis: 4}, {Kind: Factor, Feature: len(xs[0]) - 1}}
		extended := shared.Extend(2, extra...)
		for _, c := range []struct {
			dz    *Design
			k     int
			terms []TermSpec
		}{
			{shared, 2, terms[:2]}, {shared, 1, terms[:1]}, {shared, 5, terms}, {shared, 4, terms[:4]},
			{extended, 3, append(terms[:2:2], extra[0])}, {extended, 4, append(terms[:2:2], extra...)},
			{extended, 2, terms[:2]},
		} {
			name := fmt.Sprintf("%s %d terms", tc.link, c.k)
			got, err := c.dz.FitCtx(context.Background(), c.k, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := Fit(Spec{Terms: c.terms, Link: tc.link}, xs, tc.y, opt)
			if err != nil {
				t.Fatalf("%s standalone: %v", name, err)
			}
			requireSameModel(t, name, got, want)
		}
	}
}

// requireSameModel requires two fitted models to agree bitwise in
// coefficients, column means, λ and GCV trace, and serialized form.
func requireSameModel(t *testing.T, name string, got, want *Model) {
	t.Helper()
	same := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s lengths %d vs %d", name, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v vs %v", name, what, i, a[i], b[i])
			}
		}
	}
	same("β", got.beta, want.beta)
	same("column means", got.colMeans, want.colMeans)
	same("GCV trace", got.report.GCVs, want.report.GCVs)
	same("λ grid", got.report.Lambdas, want.report.Lambdas)
	same("λ, EDF, scale", []float64{got.report.Lambda, got.report.EDF, got.report.Scale, got.report.GCV},
		[]float64{want.report.Lambda, want.report.EDF, want.report.Scale, want.report.GCV})
	gb, err := got.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: serialized models differ", name)
	}
}

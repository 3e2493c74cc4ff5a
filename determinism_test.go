package gef

// Determinism gate for the internal/par runtime (ISSUE 3): every
// parallelized pipeline stage must produce bitwise-identical outputs at
// workers ∈ {1, 2, NumCPU}. The contract is fixed chunk boundaries plus
// ordered reduction (see internal/par), so these tests compare float64
// outputs with ==, not tolerances.

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/par"
	"gef/internal/sampling"
	"gef/internal/shap"
)

// workerCounts is the grid every determinism test sweeps.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	return counts
}

// atWorkers runs fn with the worker count pinned, restoring the default.
func atWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	par.SetWorkers(n)
	defer par.SetWorkers(0)
	fn()
}

// requireSameFloats asserts bitwise equality of two float64 slices.
func requireSameFloats(t *testing.T, what string, ref, got []float64, workers int) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: workers=%d produced %d values, workers=1 produced %d", what, workers, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: workers=%d diverges at [%d]: %x vs %x", what, workers, i, got[i], ref[i])
		}
	}
}

func trainFixtureForest(t *testing.T) (*Forest, *dataset.Dataset) {
	t.Helper()
	ds := dataset.GPrime(1200, 0.1, 19)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 40, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f, ds
}

func TestGAMFitDeterministicAcrossWorkers(t *testing.T) {
	ds := dataset.GPrime(1500, 0.1, 23)
	spec := gam.Spec{Terms: []gam.TermSpec{
		{Kind: gam.Spline, Feature: 0},
		{Kind: gam.Spline, Feature: 1},
		{Kind: gam.Spline, Feature: 2},
	}}
	opt := gam.Options{Lambdas: []float64{0.01, 1, 100}}

	fit := func() (preds []float64, rep gam.FitReport) {
		m, err := gam.Fit(spec, ds.X, ds.Y, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m.PredictBatch(ds.X[:200]), m.Report()
	}
	var refPreds []float64
	var refRep gam.FitReport
	atWorkers(t, 1, func() { refPreds, refRep = fit() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			preds, rep := fit()
			requireSameFloats(t, "gam predictions", refPreds, preds, w)
			if rep.Lambda != refRep.Lambda || rep.GCV != refRep.GCV || rep.EDF != refRep.EDF {
				t.Fatalf("workers=%d fit report (λ=%v gcv=%x edf=%x) != workers=1 (λ=%v gcv=%x edf=%x)",
					w, rep.Lambda, rep.GCV, rep.EDF, refRep.Lambda, refRep.GCV, refRep.EDF)
			}
		})
	}
}

func TestGAMLogitFitDeterministicAcrossWorkers(t *testing.T) {
	ds := dataset.GPrime(1200, 0.1, 29)
	// Binarize the target so the logit P-IRLS path runs.
	y := make([]float64, len(ds.Y))
	for i, v := range ds.Y {
		if v > 0 {
			y[i] = 1
		}
	}
	spec := gam.Spec{
		Link: gam.Logit,
		Terms: []gam.TermSpec{
			{Kind: gam.Spline, Feature: 0},
			{Kind: gam.Spline, Feature: 1},
		},
	}
	opt := gam.Options{Lambdas: []float64{0.1, 10}}
	fit := func() []float64 {
		m, err := gam.Fit(spec, ds.X, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m.PredictBatch(ds.X[:200])
	}
	var ref []float64
	atWorkers(t, 1, func() { ref = fit() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			requireSameFloats(t, "logit gam predictions", ref, fit(), w)
		})
	}
}

func TestDStarDeterministicAcrossWorkers(t *testing.T) {
	f, _ := trainFixtureForest(t)
	domains, err := sampling.BuildDomains(f, []int{0, 1, 2, 3, 4},
		sampling.Config{Strategy: sampling.EquiSize, K: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *dataset.Dataset { return sampling.Generate(f, domains, 3000, 11) }
	var ref *dataset.Dataset
	atWorkers(t, 1, func() { ref = gen() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			ds := gen()
			for i := range ref.X {
				requireSameFloats(t, "D* row", ref.X[i], ds.X[i], w)
			}
			requireSameFloats(t, "D* labels", ref.Y, ds.Y, w)
		})
	}
}

func TestSHAPDeterministicAcrossWorkers(t *testing.T) {
	f, ds := trainFixtureForest(t)
	sample := ds.X[:150]
	background := ds.X[150:200]
	run := func() (imp, phis, intPhi []float64) {
		imp = shap.GlobalImportance(f, sample)
		_, phis = shap.DependenceSeries(f, sample, 2)
		intPhi, _ = shap.InterventionalValues(f, ds.X[0], background)
		return imp, phis, intPhi
	}
	var refImp, refPhis, refInt []float64
	atWorkers(t, 1, func() { refImp, refPhis, refInt = run() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			imp, phis, intPhi := run()
			requireSameFloats(t, "shap global importance", refImp, imp, w)
			requireSameFloats(t, "shap dependence series", refPhis, phis, w)
			requireSameFloats(t, "interventional shap", refInt, intPhi, w)
		})
	}
}

func TestForestBatchPredictDeterministicAcrossWorkers(t *testing.T) {
	f, ds := trainFixtureForest(t)
	var ref []float64
	atWorkers(t, 1, func() { ref = f.PredictBatch(ds.X) })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			requireSameFloats(t, "forest batch predictions", ref, f.PredictBatch(ds.X), w)
		})
	}
}

func TestGBDTTrainingDeterministicAcrossWorkers(t *testing.T) {
	ds := dataset.GPrime(1000, 0.1, 31)
	train, valid := ds.Split(0.25, 5)
	p := gbdt.Params{
		NumTrees: 25, NumLeaves: 8, Seed: 3,
		BaggingFraction: 0.8, FeatureFraction: 0.7,
		EarlyStoppingRounds: 10,
	}
	fit := func() *Forest {
		f, _, err := gbdt.TrainValid(train, valid, p)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var ref *Forest
	atWorkers(t, 1, func() { ref = fit() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			f := fit()
			if !reflect.DeepEqual(ref.Trees, f.Trees) {
				t.Fatalf("workers=%d grew a different forest than workers=1", w)
			}
		})
	}
}

func TestRFTrainingDeterministicAcrossWorkers(t *testing.T) {
	ds := dataset.GPrime(800, 0.1, 37)
	p := gbdt.RFParams{NumTrees: 12, NumLeaves: 16, Seed: 9}
	fit := func() *Forest {
		f, err := gbdt.TrainRF(ds, p)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var ref *Forest
	atWorkers(t, 1, func() { ref = fit() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			if f := fit(); !reflect.DeepEqual(ref.Trees, f.Trees) {
				t.Fatalf("workers=%d grew a different RF than workers=1", w)
			}
		})
	}
}

func TestGridSearchCVDeterministicAcrossWorkers(t *testing.T) {
	ds := dataset.GPrime(600, 0.1, 41)
	grid := gbdt.Grid{
		NumTrees:      []int{10, 20},
		NumLeaves:     []int{4, 8},
		LearningRates: []float64{0.1},
	}
	run := func() (gbdt.Params, []float64) {
		best, results, err := gbdt.GridSearchCV(ds, gbdt.Params{Seed: 2}, grid, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, len(results))
		for i, r := range results {
			losses[i] = r.MeanLoss
		}
		return best, losses
	}
	var refBest gbdt.Params
	var refLosses []float64
	atWorkers(t, 1, func() { refBest, refLosses = run() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			best, losses := run()
			requireSameFloats(t, "cv mean losses", refLosses, losses, w)
			if best != refBest {
				t.Fatalf("workers=%d picked %+v, workers=1 picked %+v", w, best, refBest)
			}
		})
	}
}

func TestFullExplainDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline sweep")
	}
	f, ds := trainFixtureForest(t)
	cfg := Config{
		NumUnivariate: 4,
		NumSamples:    2000,
		Sampling:      SamplingConfig{Strategy: EquiSize, K: 40},
		GAM:           GAMOptions{Lambdas: []float64{0.01, 1, 100}},
		Seed:          3,
	}
	// Each run gets a fresh session: the shared engine's cache would
	// serve later runs from memory and make the worker sweep vacuous
	// (warm runs never touch the parallel code paths).
	run := func() []float64 {
		e, err := NewExplainer(f).Explain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.Model.PredictBatch(ds.X[:100])
	}
	var ref []float64
	atWorkers(t, 1, func() { ref = run() })
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			requireSameFloats(t, "explanation predictions", ref, run(), w)
		})
	}
}

// TestEngineWarmCacheDeterministicAcrossWorkers extends the determinism
// gate to the engine's cache states: for every worker count, a cold run
// and a warm re-run on the same session must match the workers=1 cold
// reference bitwise. Cached artifacts are pure values, so cache state —
// like worker count — must be output-invisible.
func TestEngineWarmCacheDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline sweep")
	}
	f, ds := trainFixtureForest(t)
	cfg := Config{
		NumUnivariate: 4,
		NumSamples:    2000,
		Sampling:      SamplingConfig{Strategy: EquiSize, K: 40},
		GAM:           GAMOptions{Lambdas: []float64{0.01, 1, 100}},
		Seed:          3,
	}
	runTwice := func() (cold, warm []float64, stats CacheStats) {
		s := NewExplainer(f)
		for i, out := range []*[]float64{&cold, &warm} {
			e, err := s.Explain(cfg)
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			*out = e.Model.PredictBatch(ds.X[:100])
		}
		return cold, warm, s.CacheStats()
	}
	var ref []float64
	atWorkers(t, 1, func() {
		cold, warm, stats := runTwice()
		if stats.Hits == 0 {
			t.Fatal("warm run recorded no cache hits")
		}
		requireSameFloats(t, "warm vs cold predictions", cold, warm, 1)
		ref = cold
	})
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			cold, warm, _ := runTwice()
			requireSameFloats(t, "cold predictions", ref, cold, w)
			requireSameFloats(t, "warm predictions", ref, warm, w)
		})
	}
}

// TestFamilySurrogatesDeterministicAcrossWorkers extends the
// determinism gate to the explainer-family registry (ISSUE 10): every
// first-party surrogate family must produce bitwise-identical
// predictions at workers ∈ {1, 2, NumCPU}, cold and warm. A warm run
// replays the cached fit-stage artifact — model and fidelity — for
// every family, so it must record exactly one fit-stage hit; for gam
// the warm model's Marshal(true) bytes and Fidelity must also equal the
// cold run's at workers=1.
func TestFamilySurrogatesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline sweep")
	}
	f, ds := trainFixtureForest(t)
	rows := ds.X[:100]
	for _, fam := range []string{FamilyGAM, FamilyRules, FamilySmoother} {
		t.Run(fam, func(t *testing.T) {
			cfg := Config{
				Family:        fam,
				NumUnivariate: 4,
				NumSamples:    2000,
				Sampling:      SamplingConfig{Strategy: EquiSize, K: 40},
				GAM:           GAMOptions{Lambdas: []float64{0.01, 1, 100}},
				Seed:          3,
			}
			type run struct {
				preds []float64
				blob  []byte // gam only: Marshal(true)
				fid   Fidelity
			}
			runTwice := func(w int) (cold, warm run) {
				s := NewExplainer(f)
				for i, out := range []*run{&cold, &warm} {
					before := s.CacheStats().Stages["fit"]
					e, err := s.Explain(cfg)
					if err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
					if e.Family != fam {
						t.Fatalf("run %d: family %q, want %q (fallback must not fire here)", i, e.Family, fam)
					}
					after := s.CacheStats().Stages["fit"]
					if i == 1 && (after.Hits != before.Hits+1 || after.Misses != before.Misses) {
						t.Errorf("workers=%d: warm %s run is not a fit-stage hit: %+v → %+v", w, fam, before, after)
					}
					preds, err := e.Surrogate.PredictBatch(context.Background(), rows)
					if err != nil {
						t.Fatalf("run %d: predict: %v", i, err)
					}
					out.preds, out.fid = preds, e.Fidelity
					if e.Model != nil {
						if out.blob, err = e.Model.Marshal(true); err != nil {
							t.Fatalf("run %d: marshal: %v", i, err)
						}
					}
				}
				return cold, warm
			}
			requireSameRun := func(what string, ref, got run, w int) {
				t.Helper()
				requireSameFloats(t, fam+" "+what+" predictions", ref.preds, got.preds, w)
				if !bytes.Equal(ref.blob, got.blob) {
					t.Errorf("workers=%d: %s %s model bytes differ", w, fam, what)
				}
				if ref.fid != got.fid {
					t.Errorf("workers=%d: %s %s fidelity %+v, want %+v", w, fam, what, got.fid, ref.fid)
				}
			}
			var ref run
			atWorkers(t, 1, func() {
				cold, warm := runTwice(1)
				requireSameRun("warm vs cold", cold, warm, 1)
				ref = cold
			})
			for _, w := range workerCounts()[1:] {
				atWorkers(t, w, func() {
					cold, warm := runTwice(w)
					requireSameRun("cold", ref, cold, w)
					requireSameRun("warm", ref, warm, w)
				})
			}
		})
	}
}

// TestFlatColdVsCompiledDeterministicAcrossWorkers extends the gate to
// the SoA compilation states: a freshly compiled flat forest and the one
// sealed onto the trained forest must both match the serial pointer walk
// bitwise at every worker count — compilation, like worker count, must
// be output-invisible.
func TestFlatColdVsCompiledDeterministicAcrossWorkers(t *testing.T) {
	f, ds := trainFixtureForest(t)
	rows := ds.X[:400]

	// Serial pointer-walk reference: base + trees in tree order per row.
	ref := make([]float64, len(rows))
	for i, x := range rows {
		ref[i] = f.Predict(x)
	}

	flats := []struct {
		name string
		fl   *forest.Flat
	}{{"cold", forest.Compile(f)}, {"sealed", f.Flat()}}

	var refImp []float64
	atWorkers(t, 1, func() { refImp = shap.GlobalImportance(f, ds.X[:100]) })

	for _, w := range workerCounts() {
		atWorkers(t, w, func() {
			requireSameFloats(t, "batch predictions", ref, f.PredictBatch(rows), w)
			for _, c := range flats {
				out := make([]float64, len(rows))
				c.fl.PredictBatchInto(rows, out)
				requireSameFloats(t, c.name+" flat predictions", ref, out, w)
			}
			requireSameFloats(t, "flat-backed shap importance",
				refImp, shap.GlobalImportance(f, ds.X[:100]), w)
		})
	}
}

// TestSampleSubsetsPerCallStreams pins the satellite fix: sampleRows /
// sampleFeatures draws are a pure function of the per-call seed, so
// repeated or reordered calls cannot perturb each other.
func TestSampleSubsetsPerCallStreams(t *testing.T) {
	s1 := par.SplitSeed(42, 0)
	s2 := par.SplitSeed(42, 1)
	if s1 == s2 {
		t.Fatal("SplitSeed produced identical streams for distinct indices")
	}
	a := rand.New(rand.NewSource(s1)).Perm(50)
	// Interleave a draw on another stream; stream s1 must be unaffected.
	_ = rand.New(rand.NewSource(s2)).Perm(50)
	b := rand.New(rand.NewSource(s1)).Perm(50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("per-call stream is not self-contained")
	}
}

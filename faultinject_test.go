package gef

// Fault-injection gate (ISSUE 4): every injected fault must surface as
// an in-stage recovery, a recorded degradation, or a typed taxonomy
// error — never a panic, a hang, or a nondeterministic output. Plans are
// pure functions of (site, key, level), so injected runs are swept
// across worker counts exactly like the clean determinism gate.
//
// verify.sh runs `go test -run TestFaultInjection ./...` as a dedicated
// gate; keep every test here under that name prefix.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gef/internal/dataset"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/obs"
	"gef/internal/robust"
)

// withInjector installs a plan for fn and restores the nil production
// injector even when fn fails the test.
func withInjector(t *testing.T, in *robust.Injector, fn func()) {
	t.Helper()
	robust.SetInjector(in)
	defer robust.SetInjector(nil)
	fn()
}

// faultForest is a small fixture forest: big enough that every pipeline
// stage does real work, small enough that the fault sweeps stay fast.
func faultForest(t *testing.T) *Forest {
	t.Helper()
	ds := dataset.GPrime(700, 0.1, 43)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 15, NumLeaves: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func faultCfg() Config {
	return Config{
		NumUnivariate: 5,
		NumSamples:    800,
		Sampling:      SamplingConfig{Strategy: EquiSize, K: 20},
		GAM:           GAMOptions{Lambdas: []float64{0.1, 10}},
		Seed:          5,
	}
}

// logitFixture binarizes g′ labels so the P-IRLS path runs.
func logitFixture(n int, seed int64) (*dataset.Dataset, []float64) {
	ds := dataset.GPrime(n, 0.1, seed)
	y := make([]float64, len(ds.Y))
	for i, v := range ds.Y {
		if v > 2.5 {
			y[i] = 1
		}
	}
	return ds, y
}

// TestFaultInjectionCholeskyExhaustion forces every factorization
// attempt — all ridge rungs, all fit ordinals — to fail. The gam layer
// must surface ErrNumerical, and the pipeline must exhaust its
// structural ladder and surface the same sentinel instead of panicking.
func TestFaultInjectionCholeskyExhaustion(t *testing.T) {
	t.Run("gam fit", func(t *testing.T) {
		ds := dataset.GPrime(400, 0.1, 11)
		spec := gam.Spec{Terms: []gam.TermSpec{{Kind: gam.Spline, Feature: 0}}}
		withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteCholesky, -1)), func() {
			_, err := gam.Fit(spec, ds.X, ds.Y, gam.Options{Lambdas: []float64{1}})
			if !errors.Is(err, robust.ErrNumerical) {
				t.Fatalf("want ErrNumerical, got %v", err)
			}
		})
	})
	t.Run("pipeline falls back to the rules family", func(t *testing.T) {
		// When the GAM's whole structural ladder is exhausted, the fit
		// stage walks the cross-family ladder (gam → rules) instead of
		// failing: the rule family needs no factorization, so the
		// pipeline still produces a valid (simpler) explanation and
		// records the family fallback.
		f := faultForest(t)
		withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteCholesky, -1)), func() {
			e, err := Explain(f, faultCfg())
			if err != nil {
				t.Fatalf("family fallback should rescue the explanation, got %v", err)
			}
			if e.Family != FamilyRules {
				t.Fatalf("want the rules family after GAM exhaustion, got %q", e.Family)
			}
			if e.Model != nil {
				t.Fatal("non-gam explanation must not expose a GAM model")
			}
			var fellBack bool
			for _, d := range e.Degradations {
				if d.Action == robust.ActionFallbackFamily {
					fellBack = true
				}
			}
			if !fellBack {
				t.Fatalf("want a %s degradation, got %v", robust.ActionFallbackFamily, e.Degradations)
			}
			if math.IsNaN(e.Fidelity.RMSE) || math.IsInf(e.Fidelity.RMSE, 0) {
				t.Fatalf("fallback fidelity is not finite: %+v", e.Fidelity)
			}
		})
	})
}

// TestFaultInjectionTensorFitDegrades fails only fit ordinal 0 — the
// full spec with tensor terms — and requires the pipeline to fall back
// to a main-effects GAM, record the drop_tensors degradation, and still
// report finite fidelity.
func TestFaultInjectionTensorFitDegrades(t *testing.T) {
	f := faultForest(t)
	cfg := faultCfg()
	cfg.ForcedPairs = [][2]int{{0, 1}}
	withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteCholesky, 0)), func() {
		e, err := Explain(f, cfg)
		if err != nil {
			t.Fatalf("degraded pipeline should still succeed: %v", err)
		}
		if len(e.Degradations) != 1 {
			t.Fatalf("want exactly one degradation, got %v", e.Degradations)
		}
		d := e.Degradations[0]
		if d.Stage != "gam" || d.Action != robust.ActionDropTensors {
			t.Fatalf("want gam/%s, got %v", robust.ActionDropTensors, d)
		}
		if math.IsNaN(e.Fidelity.RMSE) || math.IsInf(e.Fidelity.RMSE, 0) {
			t.Fatalf("degraded fidelity is not finite: %+v", e.Fidelity)
		}
	})
}

// TestFaultInjectionRidgeRecovery fails factorizations below ridge 1e-5
// so only the escalation rungs can rescue the fit — which must succeed
// and count a recovery.
func TestFaultInjectionRidgeRecovery(t *testing.T) {
	ds := dataset.GPrime(500, 0.1, 17)
	spec := gam.Spec{Terms: []gam.TermSpec{
		{Kind: gam.Spline, Feature: 0},
		{Kind: gam.Spline, Feature: 1},
	}}
	recoveries := obs.Metrics().Counter("robust.recoveries")
	before := recoveries.Value()
	withInjector(t, robust.NewInjector(1, robust.FailBelow(robust.SiteCholesky, -1, 1e-5)), func() {
		m, err := gam.Fit(spec, ds.X, ds.Y, gam.Options{Lambdas: []float64{1}})
		if err != nil {
			t.Fatalf("ridge escalation should have rescued the fit: %v", err)
		}
		for _, p := range m.PredictBatch(ds.X[:50]) {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatal("recovered fit produced non-finite predictions")
			}
		}
	})
	if recoveries.Value() <= before {
		t.Fatal("robust.recoveries did not increase")
	}
}

// TestFaultInjectionIRLSStepHalving poisons the first step of P-IRLS
// iteration 1 (level 1.0 < 1.1) but lets the halved re-evaluations
// (level ≥ 1.25) through, so step-halving must recover the step. The
// unconditional variant poisons every evaluation, so the P-IRLS
// iteration diverges, counts pirls_diverged and surfaces ErrNumerical.
func TestFaultInjectionIRLSStepHalving(t *testing.T) {
	ds, y := logitFixture(600, 23)
	spec := gam.Spec{
		Link: gam.Logit,
		Terms: []gam.TermSpec{
			{Kind: gam.Spline, Feature: 0},
			{Kind: gam.Spline, Feature: 1},
		},
	}
	opt := gam.Options{Lambdas: []float64{0.1, 10}}
	t.Run("recovery", func(t *testing.T) {
		recoveries := obs.Metrics().Counter("robust.recoveries")
		before := recoveries.Value()
		withInjector(t, robust.NewInjector(1, robust.FailBelow(robust.SiteIRLS, -1, 1.1)), func() {
			m, err := gam.Fit(spec, ds.X, y, opt)
			if err != nil {
				t.Fatalf("step-halving should have rescued the fit: %v", err)
			}
			for _, p := range m.PredictBatch(ds.X[:50]) {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatal("recovered fit produced non-finite predictions")
				}
			}
		})
		if recoveries.Value() <= before {
			t.Fatal("robust.recoveries did not increase")
		}
	})
	t.Run("forced divergence", func(t *testing.T) {
		diverged := obs.Metrics().CounterVec("gam.numerical_warnings", "kind").With("pirls_diverged")
		before := diverged.Value()
		withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteIRLS, -1)), func() {
			_, err := gam.Fit(spec, ds.X, y, opt)
			if !errors.Is(err, robust.ErrNumerical) {
				t.Fatalf("want ErrNumerical when P-IRLS diverges, got %v", err)
			}
		})
		if diverged.Value() <= before {
			t.Fatal("gam.numerical_warnings{kind=\"pirls_diverged\"} did not increase")
		}
	})
}

// TestFaultInjectionDomainCollapse collapses sampling domains: a single
// bad feature is dropped from F′ (recorded, pipeline succeeds); when
// every feature collapses the pipeline surfaces ErrDegenerate.
func TestFaultInjectionDomainCollapse(t *testing.T) {
	f := faultForest(t)
	t.Run("single feature dropped", func(t *testing.T) {
		withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteDomains, 2)), func() {
			e, err := Explain(f, faultCfg())
			if err != nil {
				t.Fatalf("pipeline should survive one collapsed domain: %v", err)
			}
			if len(e.Degradations) != 1 {
				t.Fatalf("want exactly one degradation, got %v", e.Degradations)
			}
			d := e.Degradations[0]
			if d.Stage != "sampling" || d.Action != robust.ActionDropFeature ||
				!strings.Contains(d.Detail, "feature 2") {
				t.Fatalf("want sampling/%s for feature 2, got %v", robust.ActionDropFeature, d)
			}
			for _, g := range e.Model.Report().Lambdas {
				if math.IsNaN(g) {
					t.Fatal("degraded fit has NaN in its λ grid report")
				}
			}
		})
	})
	t.Run("all features degenerate", func(t *testing.T) {
		withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteDomains, -1)), func() {
			_, err := Explain(f, faultCfg())
			if !errors.Is(err, robust.ErrDegenerate) {
				t.Fatalf("want ErrDegenerate when every domain collapses, got %v", err)
			}
		})
	})
}

// TestFaultInjectionCancelEachStage cancels the pipeline context at
// every stage boundary in turn; each must abort with context.Canceled —
// typed, immediate, no panic.
func TestFaultInjectionCancelEachStage(t *testing.T) {
	f := faultForest(t)
	for stage := 0; stage <= 4; stage++ {
		withInjector(t, robust.NewInjector(1, robust.FailAlways(robust.SiteCancel, stage)), func() {
			_, err := Explain(f, faultCfg())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stage %d: want context.Canceled, got %v", stage, err)
			}
		})
	}
}

// TestFaultInjectionDeadline expires the deadline before the pipeline
// starts; the error must carry both the robust sentinel and the stdlib
// cause so either errors.Is idiom works.
func TestFaultInjectionDeadline(t *testing.T) {
	f := faultForest(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := ExplainContext(ctx, f, faultCfg())
	if !errors.Is(err, robust.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrDeadline must still match context.DeadlineExceeded, got %v", err)
	}
}

// TestFaultInjectionDeterministicAcrossWorkers runs a compound fault
// plan — a collapsed domain, a failed tensor fit, and ridge escalation
// on every surviving factorization — and requires the degraded pipeline
// to be bitwise identical at every worker count, like the clean runs in
// determinism_test.go.
func TestFaultInjectionDeterministicAcrossWorkers(t *testing.T) {
	f := faultForest(t)
	cfg := faultCfg()
	cfg.ForcedPairs = [][2]int{{0, 1}}
	probe := dataset.GPrime(80, 0, 99).X
	plan := func() *robust.Injector {
		return robust.NewInjector(7,
			robust.FailAlways(robust.SiteDomains, 4),
			robust.FailAlways(robust.SiteCholesky, 0),
			robust.FailBelow(robust.SiteCholesky, -1, 1e-6))
	}
	run := func() (preds []float64, degs []robust.Degradation) {
		// A fresh injector per run: ordinal scopes (the fit counter) must
		// start from zero so the plan reads identically every time.
		withInjector(t, plan(), func() {
			e, err := Explain(f, cfg)
			if err != nil {
				t.Fatalf("faulted pipeline should degrade, not fail: %v", err)
			}
			preds = e.Model.PredictBatch(probe)
			degs = append([]robust.Degradation(nil), e.Degradations...)
		})
		return preds, degs
	}
	var refPreds []float64
	var refDegs []robust.Degradation
	atWorkers(t, 1, func() { refPreds, refDegs = run() })
	if len(refDegs) < 2 {
		t.Fatalf("plan should force at least drop_feature and drop_tensors, got %v", refDegs)
	}
	for _, w := range workerCounts()[1:] {
		atWorkers(t, w, func() {
			preds, degs := run()
			requireSameFloats(t, "faulted pipeline predictions", refPreds, preds, w)
			if !reflect.DeepEqual(refDegs, degs) {
				t.Fatalf("workers=%d degradations %v != workers=1 %v", w, degs, refDegs)
			}
		})
	}
}

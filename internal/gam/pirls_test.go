package gam

import (
	"math"
	"testing"

	"gef/internal/dataset"
	"gef/internal/obs"
	"gef/internal/robust"
)

// TestPIRLSPenalizedDevianceOracle pins P-IRLS step control on the logit
// fixtures with no fault injection: no accepted step raises the
// penalized deviance beyond the Tol slack, no fit counts
// pirls_diverged, and every fit converges before MaxIRLS.
func TestPIRLSPenalizedDevianceOracle(t *testing.T) {
	robust.SetInjector(nil)
	oneSpline := Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}, Link: Logit}
	grid9 := Options{Lambdas: LogSpace(1e-2, 1e4, 9)}

	type fixture struct {
		name string
		spec Spec
		xs   [][]float64
		y    []float64
		opt  Options
	}
	var fixtures []fixture
	xs, y := logitClasses(2000, 8, 9)
	fixtures = append(fixtures, fixture{"classification", oneSpline, xs, y, grid9})
	xs, y = gen1D(1200, func(x float64) float64 { return sigmoid(6 * (x - 0.5)) }, 0, 10)
	fixtures = append(fixtures, fixture{"probabilities", oneSpline, xs, y, grid9})
	xs, y = logitClasses(800, 6, 25)
	fixtures = append(fixtures, fixture{"bounded", oneSpline, xs, y, Options{Lambdas: []float64{0.1, 10}}})
	// The fault suite's logitFixture: binarized g′ labels, two splines.
	ds := dataset.GPrime(600, 0.1, 23)
	yg := make([]float64, len(ds.Y))
	for i, v := range ds.Y {
		if v > 2.5 {
			yg[i] = 1
		}
	}
	twoSplines := Spec{Link: Logit, Terms: []TermSpec{
		{Kind: Spline, Feature: 0},
		{Kind: Spline, Feature: 1},
	}}
	fixtures = append(fixtures,
		fixture{"gprime", twoSplines, ds.X, yg, Options{Lambdas: []float64{0.1, 10}}},
		fixture{"gprime default grid", twoSplines, ds.X, yg, Options{}})

	diverged := mNumWarn.With("pirls_diverged")
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			ms := obs.NewMemorySink()
			obs.SetSink(ms)
			defer obs.SetSink(nil)
			before := diverged.Value()
			m, err := Fit(fx.spec, fx.xs, fx.y, fx.opt)
			if err != nil {
				t.Fatalf("Fit: %v", err)
			}
			if d := diverged.Value() - before; d != 0 {
				t.Errorf("pirls_diverged moved by %d without fault injection", d)
			}
			opt := fx.opt.withDefaults()
			if it := m.Report().IRLS; it >= opt.MaxIRLS {
				t.Errorf("IRLS = %d, want < MaxIRLS = %d", it, opt.MaxIRLS)
			}
			// Each span carries the accepted iterate's penalized deviance
			// (pdev) and, after the first, the previous iterate's at the
			// same λ (prev_pdev): the pair the step test compares. λ is
			// re-selected every iteration, and a larger λ legitimately
			// raises pdev, so spans are only compared at equal λ.
			type iter struct{ lambda, pdev, prev float64 }
			var iters []iter
			for _, sp := range ms.Spans() {
				if sp.Name != "gam.pirls" {
					continue
				}
				it := iter{prev: math.NaN()}
				for _, a := range sp.Attrs {
					switch a.Key {
					case "lambda":
						it.lambda = a.Value.(float64)
					case "pdev":
						it.pdev = a.Value.(float64)
					case "prev_pdev":
						it.prev = a.Value.(float64)
					}
				}
				iters = append(iters, it)
			}
			if len(iters) != m.Report().IRLS {
				t.Fatalf("%d gam.pirls spans, want one per iteration (%d)", len(iters), m.Report().IRLS)
			}
			for k := 1; k < len(iters); k++ {
				cur := iters[k]
				if math.IsNaN(cur.prev) {
					t.Fatalf("iteration %d span carries no prev_pdev", k)
				}
				if cur.pdev > cur.prev+opt.Tol*(math.Abs(cur.prev)+1) {
					t.Errorf("iteration %d raised the penalized deviance at λ=%g: %v → %v",
						k, cur.lambda, cur.prev, cur.pdev)
				}
				if last := iters[k-1]; cur.lambda == last.lambda &&
					cur.pdev > last.pdev+opt.Tol*(math.Abs(last.pdev)+1) {
					t.Errorf("penalized deviance rose between iterations %d and %d at λ=%g: %v → %v",
						k-1, k, cur.lambda, last.pdev, cur.pdev)
				}
			}
		})
	}
}

// A non-positive MaxIRLS falls back to the default instead of leaving
// P-IRLS without an iteration.
func TestFitLogitNonPositiveMaxIRLS(t *testing.T) {
	xs, y := logitClasses(400, 6, 3)
	m, err := Fit(Spec{Terms: []TermSpec{{Kind: Spline, Feature: 0}}, Link: Logit}, xs, y,
		Options{Lambdas: []float64{0.1, 10}, MaxIRLS: -1})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if it := m.Report().IRLS; it < 1 {
		t.Fatalf("IRLS = %d, want ≥ 1", it)
	}
}

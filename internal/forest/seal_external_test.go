package forest_test

import (
	"testing"

	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/pdp"
	"gef/internal/shap"
)

// TestSealCompilesOnce: sealing compiles the forest exactly once, and
// every later consumer — TreeSHAP, partial dependence, batch prediction
// — reads the attached Flat instead of compiling again.
func TestSealCompilesOnce(t *testing.T) {
	f := &forest.Forest{
		Trees: []forest.Tree{{Nodes: []forest.Node{
			{Feature: 0, Threshold: 0.5, Left: 1, Right: 2, Gain: 4, Cover: 100},
			{Feature: 1, Threshold: 0.3, Left: 3, Right: 4, Gain: 2, Cover: 60},
			{Left: -1, Right: -1, Value: 3, Cover: 40},
			{Left: -1, Right: -1, Value: 1, Cover: 30},
			{Left: -1, Right: -1, Value: 2, Cover: 30},
		}}},
		NumFeatures: 2,
		BaseScore:   0.5,
		Objective:   forest.Regression,
	}
	compiles := obs.Metrics().Counter("forest.flat_compiles")
	c0 := compiles.Value()
	if err := f.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if d := compiles.Value() - c0; d != 1 {
		t.Fatalf("Seal moved forest.flat_compiles by %d, want 1", d)
	}
	c1 := compiles.Value()
	x := []float64{0.4, 0.2}
	background := [][]float64{x, {0.9, 0.9}}
	shap.Values(f, x)
	pdp.Grid1D(f, background, 0, []float64{0.2, 0.8})
	f.PredictBatch(background)
	if err := f.Seal(); err != nil {
		t.Fatalf("second Seal: %v", err)
	}
	if d := compiles.Value() - c1; d != 0 {
		t.Fatalf("consumers of a sealed forest moved forest.flat_compiles by %d, want 0", d)
	}
}

package core

import (
	"errors"
	"math/rand"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/robust"
	"gef/internal/sampling"
)

func autoBase() Config {
	return Config{
		NumSamples: 5000,
		Sampling:   sampling.Config{Strategy: sampling.EquiSize, K: 100},
		GAM:        gam.Options{Lambdas: gam.LogSpace(1e-2, 1e3, 5)},
		Seed:       17,
	}
}

func TestAutoExplainStopsAtUsefulFeatures(t *testing.T) {
	// Target uses only 2 of 6 features: the search must stop at 2 or 3
	// splines rather than spending the full budget.
	rng := rand.New(rand.NewSource(61))
	d := &dataset.Dataset{Task: dataset.Regression}
	for i := 0; i < 3000; i++ {
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.Float64()
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, 3*row[1]+2*row[4]+0.05*rng.NormFloat64())
	}
	f, err := gbdt.Train(d, gbdt.Params{NumTrees: 60, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	e, trace, err := AutoExplain(f, AutoConfig{Base: autoBase()})
	if err != nil {
		t.Fatalf("AutoExplain: %v", err)
	}
	if got := len(e.Features); got < 2 || got > 3 {
		t.Errorf("AutoExplain chose %d splines, want 2–3 for a 2-feature target", got)
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %+v", trace)
	}
	// Trace ends with a rejected step (or the cap).
	last := trace[len(trace)-1]
	if last.Accepted && last.NumUnivariate < 6 && last.NumInteractions == 0 {
		t.Errorf("search stopped while still improving: %+v", trace)
	}
	if e.Fidelity.R2 < 0.9 {
		t.Errorf("auto explainer fidelity R² = %v", e.Fidelity.R2)
	}
}

func TestAutoExplainUsesAllOfGPrime(t *testing.T) {
	// All five g′ features matter, so the search should keep all five.
	ds := dataset.GPrime(3000, 0.1, 63)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 80, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	e, _, err := AutoExplain(f, AutoConfig{Base: autoBase()})
	if err != nil {
		t.Fatalf("AutoExplain: %v", err)
	}
	if len(e.Features) != 5 {
		t.Errorf("AutoExplain chose %d splines, want 5 on g′", len(e.Features))
	}
}

func TestAutoExplainRespectsCaps(t *testing.T) {
	ds := dataset.GPrime(2000, 0.1, 67)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 40, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	e, trace, err := AutoExplain(f, AutoConfig{Base: autoBase(), MaxUnivariate: 2, MaxInteractions: 1})
	if err != nil {
		t.Fatalf("AutoExplain: %v", err)
	}
	if len(e.Features) > 2 {
		t.Errorf("cap violated: %d splines", len(e.Features))
	}
	for _, s := range trace {
		if s.NumUnivariate > 2 || s.NumInteractions > 1 {
			t.Errorf("trace step exceeds caps: %+v", s)
		}
	}
}

func TestAutoExplainSplitlessForest(t *testing.T) {
	f := &forest.Forest{
		Trees:       []forest.Tree{{Nodes: []forest.Node{{Left: -1, Right: -1, Value: 1, Cover: 1}}}},
		NumFeatures: 2,
		Objective:   forest.Regression,
	}
	if _, _, err := AutoExplain(f, AutoConfig{Base: autoBase()}); !errors.Is(err, robust.ErrDegenerate) {
		t.Errorf("splitless forest: err = %v, want ErrDegenerate", err)
	}
}

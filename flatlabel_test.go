package gef

import (
	"runtime"
	"testing"
	"time"

	"gef/internal/dataset"
	"gef/internal/gbdt"
	"gef/internal/par"
	"gef/internal/sampling"
)

// TestFlatLabelingGate gates the point of the flat forest layout:
// labeling D* through the production batch path (Forest.PredictBatch,
// the call sampling.GenerateCtx makes) must be at least 2x faster per
// row than the pointer walk at workers=1. Wall-clock ratios are only
// compared on the same host, and only where they mean something: the
// gate skips on 1-core hosts (a contended single-core scheduler makes
// the ratio noise), under -race and under -short.
func TestFlatLabelingGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation swamps both traversals; gate runs in pure builds")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if runtime.NumCPU() == 1 {
		t.Skip("1-core host: same-host ratio gates need at least 2 cores")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)

	ds := dataset.GPrime(4096, 0.1, 19)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 100, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training fixture forest: %v", err)
	}
	domains, err := sampling.BuildDomains(f, []int{0, 1, 2, 3, 4},
		sampling.Config{Strategy: sampling.EquiSize, K: 100, Seed: 7})
	if err != nil {
		t.Fatalf("building domains: %v", err)
	}
	dstar := sampling.Generate(f, domains, 8000, 11)
	ys := make([]float64, len(dstar.X))
	pointer := func() {
		for i, x := range dstar.X {
			ys[i] = f.Predict(x)
		}
	}
	flat := func() { f.PredictBatch(dstar.X) }

	// Interleaved best-of-n: the minimum is the run least disturbed by
	// other work on the host, and interleaving exposes both paths to the
	// same drift.
	var best [2]time.Duration
	for r := 0; r < 7; r++ {
		for i, fn := range []func(){pointer, flat} {
			start := time.Now()
			fn()
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	rows := float64(len(dstar.X))
	ptrNs, flatNs := float64(best[0])/rows, float64(best[1])/rows
	t.Logf("D* labeling: pointer %.1f ns/row vs flat %.1f ns/row → %.2fx (cores=%d)",
		ptrNs, flatNs, ptrNs/flatNs, runtime.NumCPU())
	if ptrNs < 2*flatNs {
		t.Fatalf("flat D* labeling speedup %.2fx < 2x gate (pointer %.1f ns/row, flat %.1f ns/row)",
			ptrNs/flatNs, ptrNs, flatNs)
	}
}

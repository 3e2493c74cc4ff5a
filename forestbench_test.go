package gef

// BENCH_forest.json generator (ISSUE 8): single-thread flat-SoA vs
// pointer-walk traversal cost, measured as ns/row at batch sizes 1, 64
// and 4096, plus two end-to-end stages — D* labeling (the sampling hot
// loop) and batch SHAP — and the forest.flat_* compile/kernel metric
// vectors recorded while the harness ran. Regenerate with:
//
//	BENCH_FOREST_OUT=BENCH_forest.json go test -count=1 -run TestWriteForestBench .
//
// On a multi-core host the harness additionally asserts the flat D*
// labeling path is ≥ 2× the pointer walk at workers=1; on a 1-core
// container the numbers are still recorded but the ratio assertion is
// skipped, mirroring the BENCH_par.json policy (contended single-core
// schedulers make wall-clock ratios too noisy to gate on).

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"gef/internal/dataset"
	"gef/internal/gbdt"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/sampling"
	"gef/internal/shap"
)

// forestKernelRow is one batch-size measurement of the prediction kernels.
type forestKernelRow struct {
	Batch           int     `json:"batch"`
	PointerNsPerRow float64 `json:"pointer_ns_per_row"`
	FlatNsPerRow    float64 `json:"flat_ns_per_row"`
	FlatSpeedup     float64 `json:"flat_speedup"` // pointer / flat
}

// forestStageRow is one end-to-end stage measurement.
type forestStageRow struct {
	Stage           string  `json:"stage"`
	Rows            int     `json:"rows"`
	PointerNsPerRow float64 `json:"pointer_ns_per_row,omitempty"`
	FlatNsPerRow    float64 `json:"flat_ns_per_row"`
	Speedup         float64 `json:"speedup,omitempty"` // pointer / flat
}

// forestBenchReport is the BENCH_forest.json shape.
type forestBenchReport struct {
	Name     string            `json:"name"`
	Go       string            `json:"go"`
	OS       string            `json:"os"`
	Arch     string            `json:"arch"`
	Cores    int               `json:"cores"`
	Workers  int               `json:"workers"`
	NumTrees int               `json:"num_trees"`
	Kernels  []forestKernelRow `json:"kernels"`
	Stages   []forestStageRow  `json:"stages"`
	Metrics  obs.Snapshot      `json:"metrics"`
}

// nsPerRow times fn (which processes rows rows per call) often enough to
// amortize timer noise and returns the per-row cost in nanoseconds. The
// warm-up call doubles as a cost probe: iteration count targets ~200k
// rows but is capped so an expensive stage (batch SHAP runs ~40ms/call)
// stays within a ~2s measurement budget.
func nsPerRow(rows int, fn func()) float64 {
	iters := 1
	if rows < 200_000 {
		iters = (200_000 + rows - 1) / rows
	}
	warmStart := time.Now() // warm caches outside the timed region, probing cost
	fn()
	if warm := time.Since(warmStart); warm > 0 {
		if budget := int(2 * time.Second / warm); budget < iters {
			iters = max(budget, 1)
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(iters*rows)
}

func speedupRatio(base, fast float64) float64 {
	if fast <= 0 {
		return 0
	}
	return base / fast
}

// TestWriteForestBench regenerates BENCH_forest.json; it is gated behind
// BENCH_FOREST_OUT so regular test runs skip the measurement sweep.
func TestWriteForestBench(t *testing.T) {
	path := os.Getenv("BENCH_FOREST_OUT")
	if path == "" {
		t.Skip("set BENCH_FOREST_OUT=<path> to generate the flat vs pointer traversal report")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)

	ds := dataset.GPrime(4096, 0.1, 19)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 100, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training fixture forest: %v", err)
	}
	fl := f.Flat()

	rep := forestBenchReport{
		Name:     "gef-forest-bench",
		Go:       runtime.Version(),
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
		Cores:    runtime.NumCPU(),
		Workers:  1,
		NumTrees: len(f.Trees),
	}

	// Kernel sweep: same rows through the pointer walk and the flat
	// layout at each batch size.
	out := make([]float64, 4096)
	for _, batch := range []int{1, 64, 4096} {
		rows := ds.X[:batch]
		ptr := nsPerRow(batch, func() {
			for _, x := range rows {
				out[0] = f.Predict(x)
			}
		})
		flat := nsPerRow(batch, func() { fl.PredictBatchInto(rows, out[:batch]) })
		rep.Kernels = append(rep.Kernels, forestKernelRow{
			Batch:           batch,
			PointerNsPerRow: ptr,
			FlatNsPerRow:    flat,
			FlatSpeedup:     speedupRatio(ptr, flat),
		})
	}

	// D* labeling end-to-end: synthesize the sample once, then compare
	// labeling it with the pointer walk vs the batched flat kernel —
	// exactly the work sampling.GenerateCtx hands to the forest.
	domains, err := sampling.BuildDomains(f, []int{0, 1, 2, 3, 4},
		sampling.Config{Strategy: sampling.EquiSize, K: 100, Seed: 7})
	if err != nil {
		t.Fatalf("building domains: %v", err)
	}
	dstar := sampling.Generate(f, domains, 8000, 11)
	ys := make([]float64, len(dstar.X))
	ptrLabel := nsPerRow(len(dstar.X), func() {
		for i, x := range dstar.X {
			ys[i] = f.Predict(x)
		}
	})
	flatLabel := nsPerRow(len(dstar.X), func() { fl.PredictBatchInto(dstar.X, ys) })
	labelSpeedup := speedupRatio(ptrLabel, flatLabel)
	rep.Stages = append(rep.Stages, forestStageRow{
		Stage: "dstar_labeling", Rows: len(dstar.X),
		PointerNsPerRow: ptrLabel, FlatNsPerRow: flatLabel, Speedup: labelSpeedup,
	})

	// Batch SHAP end-to-end: flat-backed only — the recursive pointer
	// variant no longer exists, so this row records absolute cost.
	sample := ds.X[:200]
	shapNs := nsPerRow(len(sample), func() { shap.GlobalImportance(f, sample) })
	rep.Stages = append(rep.Stages, forestStageRow{
		Stage: "shap_global_importance", Rows: len(sample), FlatNsPerRow: shapNs,
	})

	rep.Metrics = obs.Metrics().Snapshot()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
	t.Logf("D* labeling: pointer %.1f ns/row vs flat %.1f ns/row → %.2fx (cores=%d)",
		ptrLabel, flatLabel, labelSpeedup, rep.Cores)

	if runtime.NumCPU() == 1 {
		t.Skip("1-core host: recording numbers but skipping the ≥2x gate (BENCH_par policy)")
	}
	if labelSpeedup < 2 {
		t.Fatalf("flat D* labeling speedup %.2fx < 2x gate (pointer %.1f ns/row, flat %.1f ns/row)",
			labelSpeedup, ptrLabel, flatLabel)
	}
}

package gef

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
	"gef/internal/par"
	"gef/internal/sampling"
)

// TestFlatLabelingGate gates the two layers of D* labeling at
// workers=1. First, the flat layout: Forest.PredictBatch, the full-forest
// batch path, must be at least 2x faster per row than the pointer walk.
// Second, specialization: on a forest where F′ is a minority of the used
// features, labeling through the Flat specialized to D*'s subspace — the
// path sampling.GenerateCtx takes, specialization cost included — must
// be at least 1.5x faster than Forest.PredictBatch on the same rows.
// Wall-clock ratios are only compared on the same host, and only where
// they mean something: the gate skips on 1-core hosts (a contended
// single-core scheduler makes the ratio noise), under -race and under
// -short.
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

	t.Run("flat_vs_pointer", func(t *testing.T) {
		f := trainLabelingForest(t, dataset.GPrime(4096, 0.1, 19), 16)
		dstar := sampling.Generate(f, equiSizeDomains(t, f, []int{0, 1, 2, 3, 4}), 8000, 11)
		ys := make([]float64, len(dstar.X))
		ptrNs, flatNs := bestNsPerRow(len(dstar.X), func() {
			for i, x := range dstar.X {
				ys[i] = f.Predict(x)
			}
		}, func() { f.PredictBatch(dstar.X) })
		t.Logf("D* labeling: pointer %.1f ns/row vs flat %.1f ns/row → %.2fx (cores=%d)",
			ptrNs, flatNs, ptrNs/flatNs, runtime.NumCPU())
		if ptrNs < 2*flatNs {
			t.Fatalf("flat D* labeling speedup %.2fx < 2x gate (pointer %.1f ns/row, flat %.1f ns/row)",
				ptrNs/flatNs, ptrNs, flatNs)
		}
	})

	t.Run("specialized_vs_full", func(t *testing.T) {
		f := trainLabelingForest(t, dataset.SuperconductivityN(4096, 19), 31)
		// F′ is the top five features by gain, as GEF's feature
		// selection would pick them.
		imp := f.GainImportance()
		byGain := f.UsedFeatures()
		sort.SliceStable(byGain, func(a, b int) bool { return imp[byGain[a]] > imp[byGain[b]] })
		if len(byGain) < 10 {
			t.Fatalf("fixture forest uses only %d features; F′ would not be a minority", len(byGain))
		}
		d := equiSizeDomains(t, f, byGain[:5])
		dstar := sampling.Generate(f, d, 8000, 11)
		ctx := context.Background()
		var sp *forest.Flat
		fullNs, specNs := bestNsPerRow(len(dstar.X), func() { f.PredictBatch(dstar.X) }, func() {
			sp = f.Flat().Specialize(d.Features, d.Fill)
			if _, err := sp.PredictBatchCtx(ctx, dstar.X); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("D* labeling: full %.1f ns/row vs specialized %.1f ns/row → %.2fx (%d → %d nodes, cores=%d)",
			fullNs, specNs, fullNs/specNs, f.NumNodes(), sp.NumNodes(), runtime.NumCPU())
		if fullNs < 1.5*specNs {
			t.Fatalf("specialized D* labeling speedup %.2fx < 1.5x gate (full %.1f ns/row, specialized %.1f ns/row)",
				fullNs/specNs, fullNs, specNs)
		}
	})
}

// trainLabelingForest trains a 100-tree gate forest on ds.
func trainLabelingForest(t *testing.T, ds *dataset.Dataset, leaves int) *forest.Forest {
	t.Helper()
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 100, NumLeaves: leaves, Seed: 1})
	if err != nil {
		t.Fatalf("training fixture forest: %v", err)
	}
	return f
}

// equiSizeDomains builds the gate's Equi-Size K=100 domains over selected.
func equiSizeDomains(t *testing.T, f *forest.Forest, selected []int) *sampling.Domains {
	t.Helper()
	d, err := sampling.BuildDomains(f, selected, sampling.Config{Strategy: sampling.EquiSize, K: 100, Seed: 7})
	if err != nil {
		t.Fatalf("building domains: %v", err)
	}
	return d
}

// bestNsPerRow times a and b interleaved, best of seven each, and
// returns their ns per row. The minimum is the run least disturbed by
// other work on the host, and interleaving exposes both paths to the
// same drift.
func bestNsPerRow(rows int, a, b func()) (aNs, bNs float64) {
	var best [2]time.Duration
	for r := 0; r < 7; r++ {
		for i, fn := range []func(){a, b} {
			start := time.Now()
			fn()
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return float64(best[0]) / float64(rows), float64(best[1]) / float64(rows)
}

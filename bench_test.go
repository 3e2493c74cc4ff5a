package gef

// This file is the benchmark harness required by DESIGN.md: one
// testing.B benchmark per paper table and figure (each regenerates the
// corresponding result at quick scale through internal/experiments), plus
// ablation benchmarks for the design choices DESIGN.md calls out. Run
// with:
//
//	go test -bench=. -benchmem
//
// Paper-scale regeneration is the experiments binary's job:
//
//	go run ./cmd/experiments -exp all -scale paper
import (
	"fmt"
	"testing"

	"gef/internal/dataset"
	"gef/internal/experiments"
	"gef/internal/featsel"
	"gef/internal/gbdt"
	"gef/internal/obs"
	"gef/internal/sampling"
	"gef/internal/shap"
)

// benchExperiment runs one registered experiment at quick scale.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Params{Scale: experiments.Quick, Seed: 1}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// --- One benchmark per paper figure/table -------------------------------

func BenchmarkFig2ToyGAM(b *testing.B)               { benchExperiment(b, "fig2") }
func BenchmarkFig3Sampling(b *testing.B)             { benchExperiment(b, "fig3") }
func BenchmarkFig4Reconstruction(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5SamplingSweep(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6InteractionDetection(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkTable1InteractionAP(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Fidelity(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkFig7FeatureGrid(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8SamplingReal(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9GlobalComparison(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10Census(b *testing.B)              { benchExperiment(b, "fig10") }
func BenchmarkFig11LocalGEF(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12LocalSHAP(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkFig13LocalLIME(b *testing.B)           { benchExperiment(b, "fig13") }

// --- Ablations -----------------------------------------------------------

// Histogram split finding (MaxBins 255) vs near-exact split finding
// (every distinct value its own bin) — DESIGN.md ablation.
func BenchmarkAblationSplitFindingHistogram(b *testing.B) {
	benchTrain(b, gbdt.Params{NumTrees: 20, NumLeaves: 16, MaxBins: 255, Seed: 1})
}

func BenchmarkAblationSplitFindingExact(b *testing.B) {
	benchTrain(b, gbdt.Params{NumTrees: 20, NumLeaves: 16, MaxBins: 60000, Seed: 1})
}

func benchTrain(b *testing.B, p gbdt.Params) {
	ds := dataset.GPrime(4000, 0.1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbdt.Train(ds, p); err != nil {
			b.Fatal(err)
		}
	}
}

// Gain-Path O(|T|) vs H-Stat O(N·|F'|²) interaction scoring — the cost
// asymmetry the paper argues in §4.2.
func BenchmarkAblationInteractionCostGainPath(b *testing.B) {
	f, sample := interactionFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := featsel.RankInteractions(f, []int{0, 1, 2, 3, 4}, featsel.GainPath, sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInteractionCostHStat(b *testing.B) {
	f, sample := interactionFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := featsel.RankInteractions(f, []int{0, 1, 2, 3, 4}, featsel.HStat, sample); err != nil {
			b.Fatal(err)
		}
	}
}

func interactionFixture(b *testing.B) (forestT, [][]float64) {
	b.Helper()
	ds := dataset.GDoublePrime(3000, 0.1, 9, [][2]int{{0, 1}, {2, 3}})
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 60, NumLeaves: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return f, ds.X[:80]
}

type forestT = *Forest

// Sampling-domain construction cost per strategy (midpoints vs quantiles
// vs 1-D k-means, DESIGN.md's correctness/cost ablation).
func BenchmarkAblationDomainAllThresholds(b *testing.B) { benchDomain(b, sampling.AllThresholds) }
func BenchmarkAblationDomainKQuantile(b *testing.B)     { benchDomain(b, sampling.KQuantile) }
func BenchmarkAblationDomainKMeans(b *testing.B)        { benchDomain(b, sampling.KMeans) }
func BenchmarkAblationDomainEquiSize(b *testing.B)      { benchDomain(b, sampling.EquiSize) }

func benchDomain(b *testing.B, s sampling.Strategy) {
	ds := dataset.GPrime(4000, 0.1, 11)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 120, NumLeaves: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.BuildDomains(f, []int{0, 1, 2, 3, 4},
			sampling.Config{Strategy: s, K: 64, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ----------------------------------

func BenchmarkForestPredict(b *testing.B) {
	ds := dataset.GPrime(2000, 0.1, 13)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 200, NumLeaves: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := ds.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.RawPredict(x)
	}
}

func BenchmarkTreeSHAPPerInstance(b *testing.B) {
	ds := dataset.GPrime(2000, 0.1, 13)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 100, NumLeaves: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := ds.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = shap.Values(f, x)
	}
}

func BenchmarkTreeSHAPInterventional(b *testing.B) {
	ds := dataset.GPrime(2000, 0.1, 13)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 100, NumLeaves: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := ds.X[0]
	background := ds.X[1:51]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = shap.InterventionalValues(f, x, background)
	}
}

// Extension benchmarks: the extra-* experiments at quick scale.
func BenchmarkExtraSurrogates(b *testing.B)   { benchExperiment(b, "extra-surrogates") }
func BenchmarkExtraAutoExplain(b *testing.B)  { benchExperiment(b, "extra-auto") }
func BenchmarkExtraRandomForest(b *testing.B) { benchExperiment(b, "extra-rf") }

func BenchmarkGAMFit(b *testing.B) {
	ds := dataset.GPrime(8000, 0.1, 17)
	spec := GAMSpec{Terms: []TermSpec{
		{Kind: SplineTerm, Feature: 0}, {Kind: SplineTerm, Feature: 1},
		{Kind: SplineTerm, Feature: 2}, {Kind: SplineTerm, Feature: 3},
		{Kind: SplineTerm, Feature: 4},
	}}
	opts := GAMOptions{Lambdas: []float64{0.01, 1, 100}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGAM(spec, ds.X, ds.Y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullGEFPipeline(b *testing.B) {
	ds := dataset.GPrime(4000, 0.1, 19)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 100, NumLeaves: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		NumUnivariate: 5,
		NumSamples:    8000,
		Sampling:      SamplingConfig{Strategy: EquiSize, K: 100},
		GAM:           GAMOptions{Lambdas: []float64{0.01, 1, 100}},
		Seed:          3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explain(f, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Telemetry overhead -------------------------------------------------

// BenchmarkFlightRecorderOverhead measures the cost Span.End pays to
// store a record in the always-on flight recorder, reported as ns/span;
// the <100 ns/span budget is gated by TestRecorderOverheadGate in
// internal/obs. Each op records a 1024-span batch so the per-span
// figure stays stable even at -benchtime 1x.
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	r := obs.NewRecorder(obs.DefaultFlightCapacity)
	sp := obs.SpanData{Name: "bench.span"}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			r.RecordSpan(&sp)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/span")
}

// BenchmarkWritePrometheus1k measures the /metrics exposition cost at
// serving scale: 1000 labeled series rendered to the text format,
// reported as µs/scrape.
func BenchmarkWritePrometheus1k(b *testing.B) {
	reg := obs.NewRegistry()
	vec := reg.CounterVec("bench.series", "shard", "stage")
	stages := []string{"featsel", "domains", "sample", "fit"}
	for s := 0; s < 250; s++ {
		for _, st := range stages {
			vec.With(fmt.Sprintf("s%03d", s), st).Inc()
		}
	}
	var sink countingWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = 0
		if err := reg.WritePrometheus(&sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("exposition wrote nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/scrape")
}

// countingWriter discards output while counting bytes, so the benchmark
// measures encoding cost rather than I/O.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

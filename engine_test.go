package gef

import (
	"testing"

	"gef/internal/dataset"
	"gef/internal/gbdt"
)

// TestEngineWarmAutoExplainCheaper is the staged engine's acceptance
// assertion: a warm session serves every cacheable stage from memory
// (hits > 0) when AutoExplain repeats. Wall-clock is asserted only via
// the cache counters — timing itself is too noisy for CI.
func TestEngineWarmAutoExplainCheaper(t *testing.T) {
	if testing.Short() {
		t.Skip("double AutoExplain")
	}
	ds := dataset.GPrime(1200, 0.1, 19)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 40, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acfg := AutoConfig{
		Base: Config{
			NumSamples: 2000,
			Sampling:   SamplingConfig{Strategy: EquiSize, K: 40},
			GAM:        GAMOptions{Lambdas: []float64{0.1, 10}},
			Seed:       3,
		},
		MaxUnivariate:   4,
		MaxInteractions: 1,
	}
	s := NewExplainer(f)
	if _, _, err := s.AutoExplain(acfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AutoExplain(acfg); err != nil {
		t.Fatal(err)
	}
	stats := s.CacheStats()
	if stats.Hits == 0 {
		t.Fatalf("warm AutoExplain recorded no cache hits: %s", stats)
	}
	for _, name := range []string{"stats", "featsel", "domains", "sample", "interactions"} {
		if stats.Stages[name].Hits == 0 {
			t.Errorf("stage %q never hit on the warm search: %s", name, stats)
		}
	}
}

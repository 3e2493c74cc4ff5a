package core

import (
	"bytes"
	"testing"

	"gef/internal/robust"
)

// engineCfg is a fast pipeline configuration for cache tests.
func engineCfg() Config {
	cfg := quickCfg()
	cfg.NumSamples = 3000
	cfg.NumInteractions = 1
	return cfg
}

func marshalModel(t *testing.T, e *Explanation) []byte {
	t.Helper()
	b, err := e.Model.Marshal(true)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestEngineWarmExplainBitwiseIdentical is the tentpole contract: a
// second Explain with the same forest and config is served from the
// cache (every stage, the gam fit included, hits) and produces
// bitwise-identical output.
func TestEngineWarmExplainBitwiseIdentical(t *testing.T) {
	f := gprimeForest(t)
	eng := NewEngine()
	cold, err := eng.Explain(f, engineCfg())
	if err != nil {
		t.Fatalf("cold Explain: %v", err)
	}
	st := eng.CacheStats()
	for _, name := range []string{"stats", "featsel", "domains", "sample", "interactions", "fit"} {
		if st.Stages[name].Hits != 0 {
			t.Errorf("cold run recorded %d hits for stage %q", st.Stages[name].Hits, name)
		}
		if st.Stages[name].Misses == 0 {
			t.Errorf("cold run recorded no miss for stage %q", name)
		}
	}

	warm, err := eng.Explain(f, engineCfg())
	if err != nil {
		t.Fatalf("warm Explain: %v", err)
	}
	st = eng.CacheStats()
	for _, name := range []string{"stats", "featsel", "domains", "sample", "interactions", "fit"} {
		if st.Stages[name].Hits == 0 {
			t.Errorf("warm run recorded no hit for stage %q", name)
		}
		if st.Stages[name].Misses != 1 {
			t.Errorf("stage %q misses = %d, want 1", name, st.Stages[name].Misses)
		}
	}
	if !bytes.Equal(marshalModel(t, cold), marshalModel(t, warm)) {
		t.Error("warm-cache model differs from cold-cache model")
	}
	if cold.Fidelity != warm.Fidelity {
		t.Errorf("fidelity differs: %+v vs %+v", cold.Fidelity, warm.Fidelity)
	}
	if len(st.String()) == 0 || st.Entries == 0 || st.Bytes == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
}

// TestEngineWarmAutoExplain: a warm AutoExplain skips straight to the
// candidate fits — every shared stage hits — and returns a
// bitwise-identical model. The candidates are fitted directly, so the
// search records no fit-stage lookups at all.
func TestEngineWarmAutoExplain(t *testing.T) {
	f := gprimeForest(t)
	acfg := AutoConfig{Base: engineCfg(), MaxUnivariate: 4, MaxInteractions: 1}
	eng := NewEngine()
	cold, coldTrace, err := eng.AutoExplain(f, acfg)
	if err != nil {
		t.Fatalf("cold AutoExplain: %v", err)
	}
	warm, warmTrace, err := eng.AutoExplain(f, acfg)
	if err != nil {
		t.Fatalf("warm AutoExplain: %v", err)
	}
	st := eng.CacheStats()
	if st.Hits == 0 {
		t.Fatal("warm AutoExplain recorded no cache hits")
	}
	for _, name := range []string{"stats", "featsel", "domains", "sample", "interactions"} {
		if st.Stages[name].Hits == 0 {
			t.Errorf("warm AutoExplain: no hit for stage %q", name)
		}
	}
	if fit, ok := st.Stages["fit"]; ok {
		t.Errorf("AutoExplain recorded fit-stage lookups: %+v", fit)
	}
	if !bytes.Equal(marshalModel(t, cold), marshalModel(t, warm)) {
		t.Error("warm AutoExplain model differs from cold")
	}
	if len(coldTrace) != len(warmTrace) {
		t.Fatalf("trace length differs: %d vs %d", len(coldTrace), len(warmTrace))
	}
	for i := range coldTrace {
		if coldTrace[i] != warmTrace[i] {
			t.Errorf("trace step %d differs: %+v vs %+v", i, coldTrace[i], warmTrace[i])
		}
	}
}

// TestEngineSharesAcrossConfigs: configs that differ only downstream
// still share the per-forest stats/featsel artifacts.
func TestEngineSharesAcrossConfigs(t *testing.T) {
	f := gprimeForest(t)
	eng := NewEngine()
	if _, err := eng.Explain(f, engineCfg()); err != nil {
		t.Fatal(err)
	}
	cfg := engineCfg()
	cfg.NumUnivariate = 3 // different F′ prefix: domains/sample must miss
	if _, err := eng.Explain(f, cfg); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Stages["stats"].Hits == 0 || st.Stages["featsel"].Hits == 0 {
		t.Errorf("per-forest stages did not hit across configs: %+v", st.Stages)
	}
	if st.Stages["domains"].Misses != 2 {
		t.Errorf("domains misses = %d, want 2 (distinct F′)", st.Stages["domains"].Misses)
	}
}

// TestEngineBudgetEviction: the cache respects its byte budget — a tiny
// budget stays within bounds (large artifacts are simply not retained)
// and results remain identical to an uncached engine.
func TestEngineBudgetEviction(t *testing.T) {
	f := gprimeForest(t)
	small := NewEngineBudget(4096)
	a, err := small.Explain(f, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	if st := small.CacheStats(); st.Bytes > 4096 {
		t.Errorf("cache holds %d bytes, budget 4096", st.Bytes)
	}
	b, err := small.Explain(f, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalModel(t, a), marshalModel(t, b)) {
		t.Error("budget-limited engine produced differing runs")
	}

	off := NewEngineBudget(0)
	c, err := off.Explain(f, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	if st := off.CacheStats(); st.Entries != 0 || st.Stages["sample"].Hits != 0 {
		t.Errorf("budget 0 engine cached anyway: %+v", st)
	}
	if !bytes.Equal(marshalModel(t, a), marshalModel(t, c)) {
		t.Error("uncached engine output differs")
	}
}

// TestEngineInjectionBypass: with a fault injector installed the engine
// must not serve cached artifacts — otherwise a warm cache would mask
// the very computations a fault plan targets.
func TestEngineInjectionBypass(t *testing.T) {
	f := gprimeForest(t)
	eng := NewEngine()
	if _, err := eng.Explain(f, engineCfg()); err != nil {
		t.Fatal(err)
	}
	before := eng.CacheStats()

	// Empty plan: nothing fires, but the injector is installed.
	robust.SetInjector(robust.NewInjector(1))
	defer robust.SetInjector(nil)
	if _, err := eng.Explain(f, engineCfg()); err != nil {
		t.Fatal(err)
	}
	after := eng.CacheStats()
	// No stage may hit or count a miss under injection.
	for _, name := range []string{"stats", "featsel", "domains", "sample", "interactions", "fit"} {
		if after.Stages[name] != before.Stages[name] {
			t.Errorf("stage %q touched the artifact cache under injection: %+v → %+v",
				name, before.Stages[name], after.Stages[name])
		}
	}
}

// TestGAMFitKeyCoverage: the gam fit key covers every field the fit
// reads beyond the sample key. A warm engine must miss the fit stage —
// and only the fit stage — for configs that differ in one such field,
// and hit it for an identical config with the cold engine's exact bytes
// and fidelity.
func TestGAMFitKeyCoverage(t *testing.T) {
	f := gprimeForest(t)
	base := engineCfg()
	// Pin the domains-key threshold so CategoricalThreshold alone moves
	// only the fit key.
	base.CategoricalThreshold = 10
	base.Sampling.CategoricalThreshold = 10
	eng := NewEngine()
	ref, err := eng.Explain(f, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Pairs) != 1 || len(ref.Features) < 3 {
		t.Fatalf("fixture needs one ranked pair over ≥3 features, got %v over %v", ref.Pairs, ref.Features)
	}
	forced := [2]int{ref.Features[0], ref.Features[2]}
	if pr := ref.Pairs[0]; (pr.I == forced[0] && pr.J == forced[1]) || (pr.I == forced[1] && pr.J == forced[0]) {
		forced[1] = ref.Features[1]
	}
	variants := []struct {
		name string
		edit func(*Config)
	}{
		{"SplineBasis", func(c *Config) { c.SplineBasis = 10 }},
		{"TensorBasis", func(c *Config) { c.TensorBasis = 5 }},
		{"CategoricalThreshold", func(c *Config) { c.CategoricalThreshold = 4 }},
		{"GAM.Lambdas", func(c *Config) { c.GAM.Lambdas = []float64{0.1, 10} }},
		{"GAM.MaxIRLS", func(c *Config) { c.GAM.MaxIRLS = 7 }},
		{"GAM.Tol", func(c *Config) { c.GAM.Tol = 1e-4 }},
		{"pairs", func(c *Config) { c.ForcedPairs = [][2]int{forced} }},
	}
	for _, v := range variants {
		cfg := base
		v.edit(&cfg)
		before := eng.CacheStats().Stages
		if _, err := eng.Explain(f, cfg); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		after := eng.CacheStats().Stages
		if d := after["fit"].Misses - before["fit"].Misses; d != 1 || after["fit"].Hits != before["fit"].Hits {
			t.Errorf("%s: fit stage %+v → %+v, want exactly one miss", v.name, before["fit"], after["fit"])
		}
		if after["sample"].Hits-before["sample"].Hits != 1 {
			t.Errorf("%s: sample stage did not hit; the variant moved an upstream key", v.name)
		}
	}

	before := eng.CacheStats().Stages["fit"]
	warm, err := eng.Explain(f, base)
	if err != nil {
		t.Fatal(err)
	}
	if after := eng.CacheStats().Stages["fit"]; after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("identical config: fit stage %+v → %+v, want exactly one hit", before, after)
	}
	cold, err := NewEngine().Explain(f, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalModel(t, cold), marshalModel(t, warm)) {
		t.Error("fit-stage hit model differs from a cold engine's")
	}
	if cold.Fidelity != warm.Fidelity {
		t.Errorf("fidelity differs: cold %+v, warm %+v", cold.Fidelity, warm.Fidelity)
	}
}

// TestGAMArtifactCost: a cached gam fit is charged at least its p×p
// Cholesky factor against the cache budget.
func TestGAMArtifactCost(t *testing.T) {
	ex, err := NewEngine().Explain(gprimeForest(t), engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	p := int64(ex.Model.NumCoef())
	if got := artifactCost(&fitArtifact{model: ex.Surrogate}); got < 8*p*p {
		t.Errorf("gam artifact cost %d B < 8·p² = %d B (p = %d)", got, 8*p*p, p)
	}
}

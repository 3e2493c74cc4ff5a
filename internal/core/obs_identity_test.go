package core

import (
	"bytes"
	"testing"

	"gef/internal/obs"
)

// TestExplainObservationIdentity checks the tentpole invariant of the
// observability layer: running the fully-instrumented pipeline with
// tracing disabled (the default) and with a sink installed produces a
// byte-identical model — instrumentation observes, never perturbs.
func TestExplainObservationIdentity(t *testing.T) {
	f := gprimeForest(t)
	cfg := quickCfg()

	// Baseline: no sink (the seed-equivalent configuration). Each run
	// gets a fresh engine so both execute the full pipeline — a shared
	// cache would serve the second run's stages as hits and elide the
	// inner stage spans this test asserts on.
	obs.SetSink(nil)
	base, err := NewEngine().Explain(f, cfg)
	if err != nil {
		t.Fatalf("baseline Explain: %v", err)
	}
	baseBytes, err := base.Model.Marshal(true)
	if err != nil {
		t.Fatalf("marshal baseline: %v", err)
	}

	// Instrumented: memory sink capturing every span.
	ms := obs.NewMemorySink()
	obs.SetSink(ms)
	defer obs.SetSink(nil)
	traced, err := NewEngine().Explain(f, cfg)
	if err != nil {
		t.Fatalf("traced Explain: %v", err)
	}
	tracedBytes, err := traced.Model.Marshal(true)
	if err != nil {
		t.Fatalf("marshal traced: %v", err)
	}

	if !bytes.Equal(baseBytes, tracedBytes) {
		t.Errorf("instrumented run produced a different model (%d vs %d bytes)",
			len(baseBytes), len(tracedBytes))
	}
	if base.Fidelity != traced.Fidelity {
		t.Errorf("fidelity differs: %+v vs %+v", base.Fidelity, traced.Fidelity)
	}
	if len(base.Features) != len(traced.Features) {
		t.Fatalf("|F'| differs: %d vs %d", len(base.Features), len(traced.Features))
	}
	for i := range base.Features {
		if base.Features[i] != traced.Features[i] {
			t.Errorf("feature[%d] differs: %d vs %d", i, base.Features[i], traced.Features[i])
		}
	}

	// The traced run must have emitted the stage spans ISSUE-level
	// acceptance cares about: the root, the GAM fit, and its per-λ GCV
	// events.
	seen := map[string]int{}
	for _, sp := range ms.Spans() {
		seen[sp.Name]++
	}
	for _, want := range []string{
		"gef.explain", "featsel.top_features", "sampling.build_domains",
		"sampling.generate", "gam.fit", "gam.gcv", "gef.fidelity",
		"engine.stats", "engine.featsel", "engine.domains",
		"engine.sample", "engine.fit",
	} {
		if seen[want] == 0 {
			t.Errorf("no %q span emitted (saw %v)", want, seen)
		}
	}
	if seen["gam.gcv"] < len(cfg.GAM.Lambdas) {
		t.Errorf("gam.gcv spans = %d, want ≥ %d (one per λ)",
			seen["gam.gcv"], len(cfg.GAM.Lambdas))
	}
}

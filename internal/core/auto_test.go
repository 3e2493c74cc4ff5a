package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/gbdt"
	"gef/internal/obs"
	"gef/internal/robust"
	"gef/internal/sampling"
	"gef/internal/stats"
)

func autoBase() Config {
	return Config{
		NumSamples: 5000,
		Sampling:   sampling.Config{Strategy: sampling.EquiSize, K: 100},
		GAM:        gam.Options{Lambdas: gam.LogSpace(1e-2, 1e3, 5)},
		Seed:       17,
	}
}

// twoFeatureForest is trained on a target that uses only 2 of 6
// features.
func twoFeatureForest(t *testing.T) *forest.Forest {
	t.Helper()
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
	return f
}

func TestAutoExplainStopsAtUsefulFeatures(t *testing.T) {
	// Target uses only 2 of 6 features: the search must stop at 2 or 3
	// splines rather than spending the full budget.
	f := twoFeatureForest(t)
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

// TestAutoExplainNestedDesignMatchesStandaloneFits pins AutoExplain's
// shared designs: every candidate, fitted from the leading columns of
// its widest spec's design, must equal gam.FitCtx on that candidate's
// spec alone — bitwise in λ, EDF, GCV and GCV trace (read from its
// gam.fit span and gam.gcv events) and in held-out RMSE, and the chosen
// candidate's whole model (coefficients, column means, Cholesky
// factor) must serialize identically. Each candidate takes exactly one
// robust.ScopeFit ordinal, so fault plans keyed by fit ordinal keep
// their meaning.
func TestAutoExplainNestedDesignMatchesStandaloneFits(t *testing.T) {
	reg, err := gbdt.Train(dataset.GPrime(2000, 0.1, 71), gbdt.Params{NumTrees: 40, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := gbdt.Train(dataset.CensusN(3000, 35), gbdt.Params{
		NumTrees: 40, NumLeaves: 16, LearningRate: 0.1, Objective: forest.BinaryLogistic, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny tolerance grows the search through every spline and every
	// heredity pair that still lowers the RMSE; on the two-feature
	// forest the default one stops early, so the chosen model is a
	// strict prefix of the shared spline design.
	for _, tc := range []struct {
		name      string
		f         *forest.Forest
		maxUni    int
		tolerance float64
	}{
		{"regression grown", reg, 4, 1e-12}, {"regression stopped early", twoFeatureForest(t), 6, 0},
		{"binary grown", bin, 4, 1e-12}, {"binary", bin, 6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := autoBase()
			base.NumSamples = 3000
			cfg := AutoConfig{Base: base, MaxUnivariate: tc.maxUni, MaxInteractions: 2, Tolerance: tc.tolerance}
			ms := obs.NewMemorySink()
			obs.SetSink(ms)
			robust.SetInjector(robust.NewInjector(1)) // no rules: only counts fit ordinals
			ex, trace, err := NewEngine().AutoExplain(tc.f, cfg)
			fitOrdinals := robust.Ordinal(robust.ScopeFit)
			robust.SetInjector(nil)
			obs.SetSink(nil)
			if err != nil {
				t.Fatalf("AutoExplain: %v", err)
			}
			if fitOrdinals != len(trace) {
				t.Errorf("%d fit ordinals for %d candidates", fitOrdinals, len(trace))
			}
			var withTensor bool
			for _, st := range trace {
				withTensor = withTensor || st.NumInteractions > 0
			}
			if tc.tolerance > 0 && !withTensor {
				t.Fatalf("search never reached a tensor candidate: %+v", trace)
			}
			fits := candidateFits(t, ms.Spans())
			if len(fits) != len(trace) {
				t.Fatalf("%d gam.fit spans for %d candidates", len(fits), len(trace))
			}

			// The candidates' standalone specs, from the same pipeline
			// stages AutoExplain ran.
			c := cfg.withDefaults(tc.f)
			p, err := NewEngine().newPipeline(tc.f, c.Base.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := p.selectFeatures(ctx, c.MaxUnivariate); err != nil {
				t.Fatal(err)
			}
			if err := p.buildDomains(ctx); err != nil {
				t.Fatal(err)
			}
			if err := p.buildSample(ctx); err != nil {
				t.Fatal(err)
			}
			pairs, err := p.rankInteractions(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for k, st := range trace {
				sel := p.features[:st.NumUnivariate]
				var selPairs []featsel.Pair
				for _, pr := range pairs {
					if len(selPairs) < st.NumInteractions && slices.Contains(sel, pr.I) && slices.Contains(sel, pr.J) {
						selPairs = append(selPairs, pr)
					}
				}
				spec, err := buildSpec(tc.f, p.stats.thresholds, sel, selPairs, p.cfg)
				if err != nil {
					t.Fatal(err)
				}
				m, err := gam.FitCtx(ctx, spec, p.train.X, p.train.Y, p.cfg.GAM)
				if err != nil {
					t.Fatalf("standalone candidate %+v: %v", st, err)
				}
				rep := m.Report()
				got := fits[k]
				if !sameBits([]float64{got.lambda, got.edf, got.gcv}, []float64{rep.Lambda, rep.EDF, rep.GCV}) ||
					!sameBits(got.gcvs, rep.GCVs) {
					t.Errorf("candidate %+v: λ/EDF/GCV %v %v, standalone %v %v",
						st, []float64{got.lambda, got.edf, got.gcv}, got.gcvs,
						[]float64{rep.Lambda, rep.EDF, rep.GCV}, rep.GCVs)
				}
				if rmse := stats.RMSE(m.PredictBatch(p.test.X), p.test.Y); !sameBits([]float64{rmse}, []float64{st.RMSE}) {
					t.Errorf("candidate %+v: RMSE %v, standalone %v", st, st.RMSE, rmse)
				}
				if st.NumUnivariate == len(ex.Features) && st.NumInteractions == len(ex.Pairs) {
					gotJSON, err := ex.Model.Marshal(true)
					if err != nil {
						t.Fatal(err)
					}
					wantJSON, err := m.Marshal(true)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Errorf("chosen candidate %+v differs from its standalone fit", st)
					}
				}
			}
		})
	}
}

// fitRecord is one gam.fit span's outcome: its chosen λ, EDF and GCV
// and the GCV trace of its last λ search.
type fitRecord struct {
	lambda, edf, gcv float64
	gcvs             []float64
}

// candidateFits reads the gam.fit spans in order, each with the GCV
// trace of its last gam.lambda_search (the final P-IRLS iteration's,
// for the logit link).
func candidateFits(t *testing.T, spans []obs.SpanData) []fitRecord {
	t.Helper()
	byID := map[uint64]obs.SpanData{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	attr := func(sp obs.SpanData, key string) float64 {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value.(float64)
			}
		}
		return math.NaN()
	}
	fitOf := func(id uint64) uint64 {
		for sp, ok := byID[id]; ok; sp, ok = byID[sp.Parent] {
			if sp.Name == "gam.fit" {
				return sp.ID
			}
		}
		t.Fatalf("span %d has no gam.fit ancestor", id)
		return 0
	}
	// Searches end before their fit, so each search's GCV trace is
	// complete when its fit's span arrives.
	traces := map[uint64][]float64{}
	lastSearch := map[uint64]uint64{}
	var fits []fitRecord
	for _, sp := range spans {
		switch sp.Name {
		case "gam.gcv":
			search := sp.Parent
			fit := fitOf(search)
			if lastSearch[fit] != search {
				lastSearch[fit], traces[fit] = search, nil
			}
			traces[fit] = append(traces[fit], attr(sp, "gcv"))
		case "gam.fit":
			fits = append(fits, fitRecord{attr(sp, "lambda"), attr(sp, "edf"), attr(sp, "gcv"), traces[sp.ID]})
		}
	}
	return fits
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

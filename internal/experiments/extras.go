package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"gef/internal/core"
	"gef/internal/distill"
	"gef/internal/gam"
	"gef/internal/sampling"
)

// The "extra-" experiments go beyond the paper: they print the ablations
// DESIGN.md commits to and the behaviour of the repository's extensions,
// using the same harness and scales as the paper experiments.

// RunExtraSurrogates compares GEF's GAM against single-tree distillation
// at matched interpretability budgets — the quantitative version of the
// paper's related-work argument for GAMs over tree prototypes.
func RunExtraSurrogates(p Params) (*Report, error) {
	p = p.withDefaults()
	z := sizesFor(p.Scale)
	f, _, _, err := gprimeForest(p, z)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "extra-surrogates", Title: "Surrogate comparison: GEF GAM vs distilled tree"}

	e, err := core.ExplainCtx(p.Context(), f, core.Config{
		NumUnivariate: 5,
		NumSamples:    z.dstarN,
		Sampling:      sampling.Config{Strategy: sampling.EquiSize, K: z.fig4K},
		GAM:           gam.Options{Lambdas: z.lambdas},
		Seed:          p.Seed,
	})
	if err != nil {
		return nil, err
	}
	tab := Table{Name: "fidelity to the forest (held-out D*)", Header: []string{"surrogate", "components", "RMSE", "R²"}}
	tab.AddRow("GEF GAM", "5 splines", f4(e.Fidelity.RMSE), f4(e.Fidelity.R2))
	for _, leaves := range []int{8, 16, 64, 256} {
		res, err := distill.Distill(f, distill.Config{
			MaxLeaves: leaves, NumSamples: z.dstarN, Seed: p.Seed,
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow("distilled tree", fmt.Sprintf("%d leaves", leaves), f4(res.RMSE), f4(res.R2))
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes,
		"a readable tree (≤16 leaves) cannot match the 5-spline GAM on a smooth additive forest")
	return r, nil
}

// RunExtraAuto traces the AutoExplain component search on the
// Superconductivity forest — the automated version of reading the elbow
// off the paper's Fig. 7.
func RunExtraAuto(p Params) (*Report, error) {
	p = p.withDefaults()
	z := sizesFor(p.Scale)
	f, _, _, err := superconForest(p, z)
	if err != nil {
		return nil, err
	}
	e, trace, err := core.AutoExplain(f, core.AutoConfig{
		Base: core.Config{
			NumSamples: z.realDstarN,
			Sampling:   sampling.Config{Strategy: sampling.EquiSize, K: z.fig9K},
			GAM:        gam.Options{Lambdas: z.lambdas},
			Seed:       p.Seed,
		},
		MaxUnivariate:   9,
		MaxInteractions: 3,
	})
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "extra-auto", Title: "AutoExplain component search on Superconductivity"}
	tab := Table{Name: "search trace", Header: []string{"splines", "interactions", "RMSE", "verdict"}}
	for _, s := range trace {
		verdict := "rejected"
		if s.Accepted {
			verdict = "accepted"
		}
		tab.AddRow(itoa(s.NumUnivariate), itoa(s.NumInteractions), f4(s.RMSE), verdict)
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"chosen: %d splines, %d interactions — fidelity RMSE %.4f, R² %.4f",
		len(e.Features), len(e.Pairs), e.Fidelity.RMSE, e.Fidelity.R2))
	return r, nil
}

// RunExtraEngine measures the staged engine's cross-call artifact cache:
// the same AutoExplain search run twice on one session — cold, then warm
// — with the per-stage hit/miss counters that show which pipeline
// artifacts (forest stats, feature ranking, domains, D*, interaction
// scores, B-spline bases) the second run served from memory.
func RunExtraEngine(p Params) (*Report, error) {
	p = p.withDefaults()
	z := sizesFor(p.Scale)
	f, _, _, err := gprimeForest(p, z)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine()
	acfg := core.AutoConfig{
		Base: core.Config{
			NumSamples: z.dstarN,
			Sampling:   sampling.Config{Strategy: sampling.EquiSize, K: z.fig4K},
			GAM:        gam.Options{Lambdas: z.lambdas},
			Seed:       p.Seed,
		},
		MaxUnivariate:   5,
		MaxInteractions: 1,
	}
	var elapsed [2]time.Duration
	for i := range elapsed {
		start := time.Now()
		if _, _, err := eng.AutoExplainCtx(p.Context(), f, acfg); err != nil {
			return nil, err
		}
		elapsed[i] = time.Since(start)
	}
	stats := eng.CacheStats()

	r := &Report{ID: "extra-engine", Title: "Staged engine: cold vs warm AutoExplain artifact reuse"}
	tab := Table{Name: "per-stage artifact cache (two identical searches)", Header: []string{"stage", "hits", "misses"}}
	names := make([]string, 0, len(stats.Stages))
	for name := range stats.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats.Stages[name]
		tab.AddRow(name, itoa(int(st.Hits)), itoa(int(st.Misses)))
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes,
		fmt.Sprintf("cold %v vs warm %v on one session — %d hits / %d misses, %d cached artifacts",
			elapsed[0].Round(time.Millisecond), elapsed[1].Round(time.Millisecond),
			stats.Hits, stats.Misses, stats.Entries),
		"AutoExplain fits its candidates directly, so no fit row appears; the other rows cache whole pipeline artifacts")
	return r, nil
}

// familyBenchRow is one family's measured cost/quality in
// BENCH_family.json.
type familyBenchRow struct {
	FitMs        float64 `json:"fit_ms"`
	RMSE         float64 `json:"rmse"`
	R2           float64 `json:"r2"`
	Degradations int     `json:"degradations"`
}

// familyBench is the BENCH_family.json shape: per-family fidelity and
// latency over one shared engine session, plus the engine counters that
// prove the D* artifacts were built once and reused across families.
type familyBench struct {
	Name         string                    `json:"name"`
	Go           string                    `json:"go"`
	OS           string                    `json:"os"`
	Arch         string                    `json:"arch"`
	Families     map[string]familyBenchRow `json:"families"`
	EngineHits   int64                     `json:"engine_hits"`
	EngineMisses int64                     `json:"engine_misses"`
}

// familiesFor resolves p.Family (comma-separated, empty = all) against
// core.Families(), keeping its presentation order.
func familiesFor(p Params) ([]string, error) {
	all := core.Families()
	if p.Family == "" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, fam := range strings.Split(p.Family, ",") {
		fam = strings.TrimSpace(fam)
		if fam == "" {
			continue
		}
		if !slices.Contains(all, fam) {
			return nil, fmt.Errorf("experiments: unknown explainer family %q (known: %s)",
				fam, strings.Join(all, ", "))
		}
		want[fam] = true
	}
	var out []string
	for _, fam := range all {
		if want[fam] {
			out = append(out, fam)
		}
	}
	return out, nil
}

// RunExtraFamilies fits every explainer family on the same
// forest over one engine session and reports fidelity (held-out D*),
// fit latency and degradation counts side by side. The first family pays
// for the shared pipeline artifacts (stats, domains, D* sample); every
// later family must reuse them from the engine cache — the per-stage
// hit counters in the second table are the proof. When OutDir is set the
// comparison also lands in OutDir/BENCH_family.json (gated by verify.sh).
func RunExtraFamilies(p Params) (*Report, error) {
	p = p.withDefaults()
	fams, err := familiesFor(p)
	if err != nil {
		return nil, err
	}
	z := sizesFor(p.Scale)
	f, _, _, err := gprimeForest(p, z)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine()
	base := core.Config{
		NumUnivariate: 5,
		NumSamples:    z.dstarN,
		Sampling:      sampling.Config{Strategy: sampling.EquiSize, K: z.fig4K},
		GAM:           gam.Options{Lambdas: z.lambdas},
		Seed:          p.Seed,
	}
	bench := familyBench{
		Name:     "gef-extra-families",
		Go:       runtime.Version(),
		OS:       runtime.GOOS,
		Arch:     runtime.GOARCH,
		Families: make(map[string]familyBenchRow, len(fams)),
	}
	r := &Report{ID: "extra-families", Title: "Explainer families on one engine session"}
	tab := Table{Name: "fidelity and latency per family (held-out D*)", Header: []string{"family", "fit ms", "RMSE", "R²", "degradations"}}
	for _, fam := range fams {
		cfg := base
		cfg.Family = fam
		start := time.Now()
		e, err := eng.ExplainCtx(p.Context(), f, cfg)
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", fam, err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		tab.AddRow(fam, f1(ms), f4(e.Fidelity.RMSE), f4(e.Fidelity.R2), itoa(len(e.Degradations)))
		bench.Families[fam] = familyBenchRow{
			FitMs: ms, RMSE: e.Fidelity.RMSE, R2: e.Fidelity.R2,
			Degradations: len(e.Degradations),
		}
	}
	r.Tables = append(r.Tables, tab)

	stats := eng.CacheStats()
	bench.EngineHits, bench.EngineMisses = stats.Hits, stats.Misses
	cacheTab := Table{Name: "per-stage artifact cache across families", Header: []string{"stage", "hits", "misses"}}
	names := make([]string, 0, len(stats.Stages))
	for name := range stats.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats.Stages[name]
		cacheTab.AddRow(name, itoa(int(st.Hits)), itoa(int(st.Misses)))
	}
	r.Tables = append(r.Tables, cacheTab)
	if len(fams) > 1 && stats.Hits == 0 {
		return nil, fmt.Errorf("experiments: no engine cache hits across %d families — cross-family artifact reuse is broken", len(fams))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("one engine session, %d families: %d artifact hits / %d misses — stats, domains and D* are built once and shared",
			len(fams), stats.Hits, stats.Misses),
		"every family's fitted model and fidelity are cached as fit-stage artifacts")

	if p.OutDir != "" {
		if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
			return nil, err
		}
		blob, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(p.OutDir, "BENCH_family.json")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		r.Notes = append(r.Notes, "benchmark written to "+path)
	}
	return r, nil
}

// f1 formats with 1 decimal for latency cells.
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// RunExtraRandomForest applies GEF to a Random Forest — the paper's §6
// future work — and reports the same fidelity numbers as Table 2.
func RunExtraRandomForest(p Params) (*Report, error) {
	p = p.withDefaults()
	z := sizesFor(p.Scale)
	f, train, test, err := rfForest(p, z)
	if err != nil {
		return nil, err
	}
	_ = train
	e, err := core.ExplainCtx(p.Context(), f, core.Config{
		NumUnivariate: 5,
		NumSamples:    z.dstarN,
		Sampling:      sampling.Config{Strategy: sampling.EquiSize, K: z.fig4K},
		GAM:           gam.Options{Lambdas: z.lambdas},
		Seed:          p.Seed,
	})
	if err != nil {
		return nil, err
	}
	row, err := e.EvaluateOnCtx(p.Context(), test)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "extra-rf", Title: "GEF on a Random Forest (paper §6 future work)"}
	tab := Table{Name: "fidelity", Header: []string{"model", "R² vs T(x)", "R² vs y"}}
	tab.AddRow("Random Forest (T)", "-", f3(row.ForestVsLabels))
	tab.AddRow("Explainer (GAM)", f3(row.GamVsForest), f3(row.GamVsLabels))
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes,
		"no GEF change is needed: RF forests expose the same thresholds/gains interface")
	return r, nil
}

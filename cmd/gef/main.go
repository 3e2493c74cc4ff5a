// Command gef explains a serialized forest with the GEF pipeline — the
// third-party certification-authority scenario of the paper: the tool
// receives only the forest JSON (produced e.g. by forestgen), never the
// training data, and outputs a global GAM explanation plus optional local
// explanations.
//
// Usage:
//
//	gef -forest forest.json -splines 7
//	gef -forest forest.json -splines 5 -interactions 2 -strategy equi-size -k 4500
//	gef -forest forest.json -explain "1.2,0.4,33,..."   # local explanation
//
// Observability (see internal/obs and README "Observability"):
//
//	gef -forest forest.json -trace t.jsonl -v  # JSONL trace + one line per span
//	gef -forest forest.json -metrics-out m.json -cpuprofile cpu.pprof
//	gef -chrome t.jsonl > t.json               # render a trace for chrome://tracing
//	gef -forest forest.json -obs-listen localhost:9090   # /metrics /healthz /flight
//	gef -flight-dump gef-flight.json           # pretty-print a dump-on-error ring
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	gefapi "gef"
	"gef/internal/core"
	"gef/internal/distill"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/gam"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/plot"
	"gef/internal/robust"
	"gef/internal/sampling"
)

func main() {
	var (
		forestPath   = flag.String("forest", "", "serialized forest JSON (required)")
		family       = flag.String("family", core.FamilyGAM, "explainer family: "+strings.Join(core.Families(), ", "))
		splines      = flag.Int("splines", 5, "number of univariate components |F'|")
		interactions = flag.Int("interactions", 0, "number of bi-variate components |F''|")
		strategy     = flag.String("strategy", "equi-size", "sampling strategy: all-thresholds, k-quantile, equi-width, k-means, equi-size, random")
		k            = flag.Int("k", 256, "points per sampling domain (K)")
		n            = flag.Int("n", 50000, "synthetic dataset size |D*|")
		interStrat   = flag.String("inter-strategy", "gain-path", "interaction strategy: pair-gain, count-path, gain-path, h-stat")
		seed         = flag.Int64("seed", 1, "random seed")
		explain      = flag.String("explain", "", "comma-separated instance to explain locally")
		noCharts     = flag.Bool("no-charts", false, "suppress ASCII spline charts")
		auto         = flag.Bool("auto", false, "choose |F'| and |F''| automatically (marginal-fidelity search)")
		doDistill    = flag.Bool("distill", false, "also distill a single-tree surrogate and print its rules")
		saveModel    = flag.String("save-model", "", "write the fitted GAM to this JSON file")
		workers      = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS); results are identical at any count")
		timeout      = flag.Duration("timeout", 0, "abort the pipeline after this duration (0 = no deadline), e.g. 90s or 5m")
		flightDump   = flag.String("flight-dump", "", "pretty-print a flight-recorder snapshot (written by -flight-out or a dump-on-error) and exit")
		chromeOf     = flag.String("chrome", "", "render a -trace JSONL file as Chrome trace_event JSON on stdout (chrome://tracing, Perfetto) and exit")
	)
	ocli.RegisterFlags(flag.CommandLine)
	flag.Parse()
	par.SetWorkers(*workers)

	if *flightDump != "" {
		s, err := obs.ReadFlightFile(*flightDump)
		if err != nil {
			fatal("reading flight dump: %v", err)
		}
		if err := obs.WriteFlightText(os.Stdout, s); err != nil {
			fatal("printing flight dump: %v", err)
		}
		return
	}
	if *chromeOf != "" {
		spans, err := obs.ReadTraceFile(*chromeOf)
		if err != nil {
			fatal("reading trace: %v", err)
		}
		if err := obs.WriteChromeTrace(os.Stdout, spans); err != nil {
			fatal("writing chrome trace: %v", err)
		}
		return
	}
	if *forestPath == "" {
		fmt.Fprintln(os.Stderr, "gef: -forest is required")
		flag.Usage()
		os.Exit(2)
	}
	stopObs, err := ocli.Start("gef")
	if err != nil {
		fatal("%v", err)
	}
	defer stopObs()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Loading retries transient filesystem failures with capped backoff;
	// a structurally invalid forest (ErrDegenerate) fails immediately.
	var f *forest.Forest
	err = robust.Retry(ctx, robust.RetryPolicy{}, func(int) error {
		var lerr error
		f, lerr = forest.LoadFile(*forestPath)
		if lerr != nil && errors.Is(lerr, os.ErrNotExist) {
			return robust.Permanent(lerr)
		}
		return lerr
	})
	if err != nil {
		fatal("loading forest: %v", err)
	}
	fmt.Printf("forest: %d trees, %d nodes, %d features, objective %s, fingerprint %s\n",
		len(f.Trees), f.NumNodes(), f.NumFeatures, f.Objective, f.Fingerprint())

	cfg := core.Config{
		Family:              *family,
		NumUnivariate:       *splines,
		NumInteractions:     *interactions,
		InteractionStrategy: featsel.InteractionStrategy(*interStrat),
		NumSamples:          *n,
		Sampling:            sampling.Config{Strategy: sampling.Strategy(*strategy), K: *k},
		Seed:                *seed,
	}
	var e *core.Explanation
	if *auto {
		var trace []core.AutoStep
		e, trace, err = core.AutoExplainCtx(ctx, f, core.AutoConfig{Base: cfg, MaxUnivariate: *splines})
		if err != nil {
			fatalTyped("auto-explaining", err)
		}
		fmt.Println("\nauto component search:")
		for _, s := range trace {
			verdict := "rejected"
			if s.Accepted {
				verdict = "accepted"
			}
			fmt.Printf("  %d splines, %d interactions: RMSE %.4f (%s)\n",
				s.NumUnivariate, s.NumInteractions, s.RMSE, verdict)
		}
	} else {
		e, err = core.ExplainCtx(ctx, f, cfg)
		if err != nil {
			fatalTyped("explaining", err)
		}
	}
	if ocli.Verbose {
		// Batch invocations in one process (and AutoExplain's candidate
		// search) reuse staged artifacts; the summary shows what was
		// served from the engine cache.
		fmt.Fprintf(os.Stderr, "gef: %s\n", core.SharedEngine().CacheStats())
	}

	fmt.Printf("\nGEF explanation — family %s, |F'| = %d, |F''| = %d, strategy %s\n",
		e.Family, len(e.Features), len(e.Pairs), *strategy)
	if len(e.Degradations) > 0 {
		fmt.Printf("WARNING: the explanation was degraded %d time(s) to survive failures:\n", len(e.Degradations))
		for _, d := range e.Degradations {
			fmt.Printf("  - %s: %s\n", d, d.Reason)
		}
		// A degraded run is the exact case the flight recorder exists for:
		// persist the ring so the ladder can be replayed post-hoc.
		if path, derr := ocli.DumpFlight("gef"); derr != nil {
			fmt.Fprintf(os.Stderr, "gef: flight dump failed: %v\n", derr)
		} else {
			fmt.Printf("  flight recorder dumped to %s (inspect with gef -flight-dump %s)\n", path, path)
		}
	}
	fmt.Printf("fidelity on held-out D*: RMSE %.4f, R² %.4f\n", e.Fidelity.RMSE, e.Fidelity.R2)
	switch {
	case e.Model != nil:
		fmt.Printf("GAM: λ = %.4g, edf = %.1f, intercept = %.4f\n\n",
			e.Model.Report().Lambda, e.Model.Report().EDF, e.Model.Intercept())
	case gefapi.RulesOf(e) != nil:
		s := gefapi.RulesOf(e).Summary()
		fmt.Printf("rules: tolerance %.3g (abs %.4g), mean kept trees %.1f of %d\n\n",
			s.Tolerance, s.AbsTolerance, s.MeanKeptTrees, s.NumTrees)
	case gefapi.SmootherOf(e) != nil:
		sm := gefapi.SmootherOf(e)
		fmt.Printf("smoother: dictionary %d rows over %d features, adaptive bandwidths\n\n",
			len(sm.Payload().Dict), len(sm.Features()))
	default:
		fmt.Printf("%s surrogate fitted (no per-term report)\n\n", e.Family)
	}

	fmt.Println("selected features (by accumulated gain):")
	imp := f.GainImportance()
	for rank, feat := range e.Features {
		fmt.Printf("  %d. %-30s gain %.2f\n", rank+1, f.FeatureName(feat), imp[feat])
	}
	if len(e.Pairs) > 0 {
		fmt.Println("selected interactions:")
		for _, p := range e.Pairs {
			fmt.Printf("  (%s, %s) score %.2f\n", f.FeatureName(p.I), f.FeatureName(p.J), p.Score)
		}
	}

	if !*noCharts && e.Model != nil {
		for ti := 0; ti < e.Model.NumTerms(); ti++ {
			spec := e.Model.Term(ti)
			if spec.Kind == gam.Tensor {
				continue
			}
			var grid []float64
			if spec.Kind == gam.Factor {
				grid = e.Model.FactorTermLevels(ti)
			} else {
				lo, hi := e.Model.TermRange(ti)
				grid = linspace(lo, hi, 48)
			}
			c, err := e.Model.TermCurve(ti, grid, 0.95)
			if err != nil {
				fatal("term curve: %v", err)
			}
			fmt.Println()
			fmt.Print(plot.Render([]plot.Line{
				{X: c.X, Y: c.Y, Name: "s(" + f.FeatureName(spec.Feature) + ")", Mark: '*'},
				{X: c.X, Y: c.Lower, Name: "95% CI", Mark: '.'},
				{X: c.X, Y: c.Upper, Mark: '.'},
			}, plot.Options{Title: spec.Label(f.FeatureName)}))
		}
	}

	if *saveModel != "" {
		if e.Model != nil {
			if err := e.Model.SaveFile(*saveModel, true); err != nil {
				fatal("saving model: %v", err)
			}
			fmt.Printf("\nfitted GAM written to %s\n", *saveModel)
		} else {
			// Non-GAM families have no standalone model file; persist the
			// whole explanation (versioned, family-tagged) instead.
			blob, err := e.Marshal(true)
			if err != nil {
				fatal("saving explanation: %v", err)
			}
			if err := os.WriteFile(*saveModel, blob, 0o644); err != nil {
				fatal("saving explanation: %v", err)
			}
			fmt.Printf("\nserialized %s explanation written to %s\n", e.Family, *saveModel)
		}
	}

	if *doDistill {
		res, err := distill.Distill(f, distill.Config{MaxLeaves: 16, NumSamples: *n, Seed: *seed})
		if err != nil {
			fatal("distilling: %v", err)
		}
		fmt.Printf("\nsingle-tree surrogate (16 leaves): RMSE %.4f, R² %.4f vs forest\n", res.RMSE, res.R2)
		fmt.Printf("GAM surrogate for comparison:      RMSE %.4f, R² %.4f\n", e.Fidelity.RMSE, e.Fidelity.R2)
		for _, rule := range res.Rules(f.FeatureName) {
			fmt.Println("  " + rule)
		}
	}

	if *explain != "" {
		x, err := parseInstance(*explain, f.NumFeatures)
		if err != nil {
			fatal("parsing -explain: %v", err)
		}
		le := e.ExplainInstance(x)
		fmt.Printf("\nlocal explanation — forest output %.4f, surrogate output %.4f, intercept %.4f\n",
			le.ForestOutput, le.GamPrediction, le.Intercept)
		if len(le.Contributions) > 0 {
			labels := make([]string, len(le.Contributions))
			values := make([]float64, len(le.Contributions))
			for i, c := range le.Contributions {
				labels[i] = c.Spec.Label(f.FeatureName)
				values[i] = c.Value
			}
			fmt.Print(plot.Bars(labels, values, 40))
		}
		if rm := gefapi.RulesOf(e); rm != nil && rm.Fitted() {
			rule, rerr := rm.Explain(x)
			if rerr != nil {
				fatal("extracting rule: %v", rerr)
			}
			fmt.Printf("rule: %s\n", rule)
		}
	}
}

func parseInstance(s string, want int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("instance has %d values, forest expects %d", len(parts), want)
	}
	x := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		x[i] = v
	}
	return x, nil
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// ocli is package-level so fatalTyped can dump the flight recorder on
// its way out (os.Exit bypasses the deferred obs cleanup).
var ocli obs.CLI

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gef: "+format+"\n", args...)
	os.Exit(1)
}

// fatalTyped maps the robust error taxonomy to actionable CLI messages
// before exiting. The flight recorder is dumped first — a typed pipeline
// failure is precisely the post-mortem the ring exists for.
func fatalTyped(what string, err error) {
	if path, derr := ocli.DumpFlight("gef"); derr != nil {
		fmt.Fprintf(os.Stderr, "gef: flight dump failed: %v\n", derr)
	} else {
		fmt.Fprintf(os.Stderr, "gef: flight recorder dumped to %s (inspect with gef -flight-dump %s)\n", path, path)
	}
	switch {
	case errors.Is(err, robust.ErrDeadline):
		fatal("%s: %v (deadline hit — raise -timeout or shrink -n/-k)", what, err)
	case errors.Is(err, robust.ErrConfig):
		fatal("%s: %v (fix the flag values and re-run)", what, err)
	case errors.Is(err, robust.ErrDegenerate):
		fatal("%s: %v (the forest cannot be explained as-is — check its thresholds and leaf values)", what, err)
	case errors.Is(err, robust.ErrNumerical):
		fatal("%s: %v (every recovery exhausted — try fewer splines or a smaller basis)", what, err)
	default:
		fatal("%s: %v", what, err)
	}
}

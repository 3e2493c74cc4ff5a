// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                 # every experiment, quick scale
//	experiments -exp fig5 -scale paper   # one experiment at paper scale
//	experiments -exp table1,table2 -out results/  # also dump CSVs
//
// Each experiment prints the same rows/series the paper reports; CSV
// files (one per table and per plotted series) land in -out when given.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gef/internal/core"
	"gef/internal/experiments"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids (fig2..fig13, table1, table2) or 'all'")
		scale   = flag.String("scale", "quick", "experiment scale: quick or paper")
		family  = flag.String("family", "", "comma-separated explainer families for family-aware experiments (extra-families); empty = all")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "directory for CSV dumps (optional)")
		list    = flag.Bool("list", false, "list available experiments and exit")
		workers = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS); results are identical at any count")
		timeout = flag.Duration("timeout", 0, "abort the experiment run after this duration (0 = no deadline), e.g. 10m")
	)
	var ocli obs.CLI
	ocli.RegisterFlags(flag.CommandLine)
	flag.Parse()
	par.SetWorkers(*workers)

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	p := experiments.Params{
		Scale:  experiments.Scale(*scale),
		Seed:   *seed,
		Family: *family,
		OutDir: *out,
	}
	if p.Scale != experiments.Quick && p.Scale != experiments.Paper {
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}

	stopObs, err := ocli.Start("experiments")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer stopObs()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	p.Ctx = ctx

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		// One span per experiment; the stage spans the pipeline opens
		// while it runs land in the same trace, so the experiment table
		// and the trace report the same costs. StartAlways keeps the
		// wall clock live even with tracing off, for the summary line.
		_, sp := obs.StartAlways(ctx, "experiment."+id,
			obs.Str("scale", string(p.Scale)), obs.I64("seed", p.Seed))
		r, err := e.Run(p)
		elapsed := sp.End()
		if err != nil {
			// Persist the flight recorder before exiting: os.Exit skips the
			// deferred obs cleanup, and a failed experiment is exactly what
			// the ring is for.
			if path, derr := ocli.DumpFlight("experiments"); derr != nil {
				fmt.Fprintf(os.Stderr, "experiments: flight dump failed: %v\n", derr)
			} else {
				fmt.Fprintf(os.Stderr, "experiments: flight recorder dumped to %s (inspect with gef -flight-dump %s)\n", path, path)
			}
			if err = robust.CtxErr(err); errors.Is(err, robust.ErrDeadline) {
				fmt.Fprintf(os.Stderr, "experiments: %s failed: %v (deadline hit — raise -timeout or use -scale quick)\n", id, err)
			} else {
				fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
			}
			os.Exit(1)
		}
		if err := r.Render(os.Stdout, *out); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: rendering %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, elapsed.Round(time.Millisecond))
	}
	if ocli.Verbose {
		// Experiments sharing a forest/config reuse staged pipeline
		// artifacts; the summary shows what the engine cache served.
		fmt.Fprintf(os.Stderr, "experiments: %s\n", core.SharedEngine().CacheStats())
	}
}

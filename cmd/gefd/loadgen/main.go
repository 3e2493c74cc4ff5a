// Command loadgen drives a running gefd with a closed-loop multi-
// tenant request mix and prints a JSON latency/throughput report
// (serve.LoadReport). It can seed its own targets: by default it
// trains two small g′ forests and registers them before the run.
//
//	gefd -listen 127.0.0.1:8080 &
//	loadgen -base http://127.0.0.1:8080 -clients 100 -duration 5s -dup-frac 0.8
//
// Fault-shaped traffic is first-class: -bad-frac sends invalid
// configs (expect 400), -unknown-frac unregistered fingerprints
// (expect 404), -cancel-frac abandons requests after ~1ms client-side
// (exercising waiter cancellation under coalescing), and the server's
// own -inject flag completes the picture.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gef/internal/serve"
)

func main() { os.Exit(run()) }

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func run() int {
	var (
		base     = flag.String("base", "http://127.0.0.1:8080", "gefd base URL")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		tenants  = flag.Int("tenants", 4, "distinct X-Tenant identities to rotate through")
		forests  = flag.Int("forests", 2, "synthetic forests to train and register before the run")
		rows     = flag.Int("rows", 600, "training rows per synthetic forest")
		fps      = flag.String("fp", "", "comma-separated pre-registered fingerprints (skips forest seeding)")
		features = flag.Int("features", 5, "feature count of -fp forests (for SHAP vectors)")
		dupFrac  = flag.Float64("dup-frac", 0.8, "fraction of explains drawn from a small hot config set")
		shapFrac = flag.Float64("shap-frac", 0.1, "fraction of requests hitting /v1/shap")
		badFrac  = flag.Float64("bad-frac", 0, "fraction sent with an invalid config (expect 400)")
		unkFrac  = flag.Float64("unknown-frac", 0, "fraction sent with an unregistered fingerprint (expect 404)")
		cancFrac = flag.Float64("cancel-frac", 0, "fraction abandoned after ~1ms client-side")
		budgetMS = flag.Int("budget-ms", 0, "per-request budget_ms (0 = server default)")
		samples  = flag.Int("samples", 2000, "explain config |D*| (small keeps closed-loop latency benchable)")
		families = flag.String("families", "", "comma-separated explainer families to rotate explains across (empty = server default)")
		seed     = flag.Int64("seed", 1, "request-mix seed")
		out      = flag.String("out", "", "write the JSON report to this file (default: stdout)")
	)
	flag.Parse()
	ctx := context.Background()

	fingerprints := splitList(*fps)
	numFeatures := *features
	if *fps == "" {
		var err error
		fingerprints, numFeatures, err = serve.SeedForests(ctx, *base, *forests, *rows, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "loadgen: registered %d forests\n", len(fingerprints))
	}

	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:      *base,
		Clients:      *clients,
		Duration:     *duration,
		Fingerprints: fingerprints,
		NumFeatures:  numFeatures,
		Tenants:      *tenants,
		DupFrac:      *dupFrac,
		ShapFrac:     *shapFrac,
		BadFrac:      *badFrac,
		UnknownFrac:  *unkFrac,
		CancelFrac:   *cancFrac,
		BudgetMS:     *budgetMS,
		NumSamples:   *samples,
		Families:     splitList(*families),
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: encoding report: %v\n", err)
		return 1
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *out, err)
			return 1
		}
	} else if _, err := os.Stdout.Write(blob); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d req in %.1fs (%.0f req/s), p50 %.1fms p99 %.1fms, coalesce %.0f%%, engine cache %.0f%%, shed %d\n",
		rep.Requests, rep.DurationS, rep.ReqPerSec, rep.P50Ms, rep.P99Ms,
		100*rep.CoalesceHitRate, 100*rep.EngineHitRate, rep.Shed)
	return 0
}

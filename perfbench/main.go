// Command perfbench is the benchmark of the explanation stack: gefd
// (internal/serve) over the staged engine (internal/core) and its
// layers, and the analyst's AutoExplain library path. It runs one seeded
// workload for a fixed time and prints, as the last line of its standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"p50_ms": {"value": 6.1, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run repeats the workload with an in-memory span sink installed and
// reports the per-layer metrics instead, printing the per-layer table and
// writing the spans under --out. See README.md for the workloads and the
// metric definitions. Run it from the repository root through run.sh,
// which builds it first:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gef/internal/par"
)

//lint:file-ignore errdrop report lines go to stdout and stderr; a failed write there has nowhere better to go

// workloadDef describes how a workload is set up and measured.
type workloadDef struct {
	census bool // the serve workloads register the census forest too
	window int  // ops per timing window: one plan block
	// setupEvery is how many blocks pass between two extra set-ups (see
	// bench): every block where a set-up is short next to a block.
	setupEvery int
}

var workloads = map[string]workloadDef{
	"serve-warm":  {census: true, window: 15, setupEvery: 4},
	"serve-cold":  {census: true, window: 12, setupEvery: 1},
	"autoexplain": {census: false, window: 10, setupEvery: 1},
}

// planLen bounds the generated request sequence; phases cycle through
// it, though no phase at full size gets near the end.
const planLen = 20000

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	out      string
	sz       sizes
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-warm, serve-cold or autoexplain")
	seed := fs.Int64("seed", 1, "workload seed: it orders the ops and picks the shap rows and the autoexplain D* seeds")
	seconds := fs.Float64("seconds", 12, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out, sz: fullSizes}
	// Maps of strings and numbers always encode.
	stamp, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": *trace, "seconds": *seconds,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "par_workers": par.Workers(),
	})
	fmt.Fprintf(stdout, "env %s\n", stamp)
	res, err := bench(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench runs one workload: inputs, the set-up, then the untraced measured
// phase (or, with cfg.trace, the traced run).
//
// setup_s is the median of set-ups spread over the run: the one that
// builds the measured session, and an extra one (built, timed and closed)
// after every def.setupEvery blocks of the phase, outside the blocks'
// timing. A set-up lasts tens of milliseconds, so set-ups made back to
// back would all fall in the same stretch of host noise.
func bench(ctx context.Context, cfg config, report io.Writer) (*result, error) {
	def := workloads[cfg.workload]
	models, err := makeModels(cfg.sz, def.census)
	if err != nil {
		return nil, err
	}
	ops := plan(cfg.workload, cfg.seed, cfg.sz, planLen)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	runtime.GC()
	s, setupS, err := setUp(ctx, cfg, models)
	if err != nil {
		return nil, err
	}
	defer s.close()

	if cfg.trace {
		return tracedRun(ctx, cfg, def, s, models, ops, report)
	}
	setups := []float64{setupS}
	var setupErr error
	extraSetUp := func(blocks int) {
		if blocks%def.setupEvery != 0 || setupErr != nil {
			return
		}
		x, t, err := setUp(ctx, cfg, models)
		if err != nil {
			setupErr = err
			return
		}
		x.close()
		setups = append(setups, t)
	}
	ph := runPhase(ctx, s, models, ops, 0, cfg.dur, cfg.sz.MinOps, def.window, extraSetUp)
	if setupErr != nil {
		return nil, setupErr
	}
	heap := heapLiveMB()
	printPhase(report, cfg.workload, ph)
	fmt.Fprintf(report, "set-ups %d, median %.4f s\n", len(setups), median(setups))
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {ph.throughput(), "1/s"},
		"p50_ms":           {quantile(ph.lats, 0.5), "ms"},
		"p90_ms":           {quantile(ph.lats, 0.9), "ms"},
		"cpu_ms_per_op":    {ph.cpuMsPerOp(), "ms"},
		"heap_live_mb":     {heap, "MB"},
		"fidelity_r2":      {ph.r2sum / float64(max(ph.r2n, 1)), "R2"},
	}
	if len(ph.lats) < cfg.sz.MinOps {
		fmt.Fprintf(report, "too few ops: %d succeeded, the percentiles need %d\n", len(ph.lats), cfg.sz.MinOps)
	}
	correct := ph.failed == 0 && ph.r2n > 0 && len(ph.lats) >= cfg.sz.MinOps
	return &result{Correct: correct, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// setUp builds the workload's session — from the serialized forests to
// the first measurable op — and returns it with its set-up time in
// seconds.
func setUp(ctx context.Context, cfg config, models []*model) (session, float64, error) {
	t0 := time.Now()
	var s session
	var err error
	switch cfg.workload {
	case "serve-warm":
		s, err = openServe(ctx, models, hotSet(cfg.sz), cfg.out)
	case "serve-cold":
		s, err = openServe(ctx, models, nil, cfg.out)
	default:
		s, err = openAuto(models[0])
	}
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(t0).Seconds(), nil
}

// printPhase writes a phase's counts and the measured op-property shares.
func printPhase(w io.Writer, name string, ph *phase) {
	shares := map[string]float64{}
	for k, v := range ph.shares {
		shares[k] = float64(v) / float64(max(ph.attempted, 1))
	}
	classP50 := map[string]float64{}
	for c, l := range ph.classLats {
		classP50[c] = median(append([]float64(nil), l...))
	}
	// Maps of strings and numbers always encode.
	rep, _ := json.Marshal(map[string]any{
		"workload": name, "attempted": ph.attempted, "failed": ph.failed, "succeeded": len(ph.lats),
		"wall_s": ph.wall.Seconds(), "ops_by_kind": ph.kinds, "shares": shares, "class_p50_ms": classP50,
	})
	fmt.Fprintf(w, "phase %s\n", rep)
	if ph.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", ph.firstErr)
	}
}

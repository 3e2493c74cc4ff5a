package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gef/internal/obs"
	"gef/internal/serve"
	"gef/internal/shap"
)

//lint:file-ignore errdrop the layer table goes to stdout, and writeSpans closes on error paths that already return the write error

// stages are the engine's pipeline stages, in order.
var stages = []string{"stats", "featsel", "domains", "sample", "interactions", "fit"}

// tracedRun measures the per-layer metrics. It runs the workload for
// half of cfg.dur untraced (the base for CPU, allocation and the tracing
// overhead), then for the other half with an obs.MemorySink installed,
// then the kernel microbenchmarks with tracing off again. Counts come
// from obs.Metrics() and /v1/stats deltas over the traced phase; times
// come from the spans. The spans are written to cfg.out.
func tracedRun(ctx context.Context, cfg config, def workloadDef, s session, models []*model, ops []op, report io.Writer) (*result, error) {
	half := cfg.dur / 2
	base := runPhase(ctx, s, models, ops, 0, half, 1, def.window, nil)
	printPhase(report, cfg.workload+" (untraced)", base)

	ss, isServe := s.(*serveSession)
	var st0, st1 serve.Stats
	var err error
	if isServe {
		if st0, err = ss.stats(ctx); err != nil {
			return nil, fmt.Errorf("reading /v1/stats: %w", err)
		}
	}
	sink := obs.NewMemorySink()
	snap0 := obs.Metrics().Snapshot()
	obs.SetSink(sink)
	// Start on a block boundary, so the traced blocks hold the same op mix
	// as the untraced ones they are compared with.
	start := (base.attempted + def.window - 1) / def.window * def.window
	tr := runPhase(ctx, s, models, ops, start, half, 1, def.window, nil)
	obs.SetSink(nil)
	snap1 := obs.Metrics().Snapshot()
	printPhase(report, cfg.workload+" (traced)", tr)
	cacheMB := 0.0
	if isServe {
		if st1, err = ss.stats(ctx); err != nil {
			return nil, fmt.Errorf("reading /v1/stats: %w", err)
		}
		cacheMB = float64(st1.Engine.Bytes) / (1 << 20)
	} else {
		cacheMB = float64(s.(*autoSession).cacheBytes) / (1 << 20)
	}

	spans := sink.Spans()
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)), spans); err != nil {
		return nil, err
	}
	lt := attribute(spans)
	printLayers(report, cfg.workload, lt)

	n := float64(max(tr.attempted, 1))
	delta := func(prefix string) float64 {
		var d int64
		for name, v := range snap1.Counters {
			if fam, _ := obs.SplitSeriesName(name); fam == prefix {
				d += v - snap0.Counters[name]
			}
		}
		return float64(d)
	}
	perOp := func(prefix string) float64 { return delta(prefix) / n }
	series := func(fam, stage string) float64 {
		name := fam + `{stage="` + stage + `"}`
		return float64(snap1.Counters[name] - snap0.Counters[name])
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// core: stage times (inclusive, per op), unspanned pipeline time,
	// fidelity evaluation per family, artifact cache.
	for _, st := range stages {
		w := lt.sumWall("engine." + st)
		if st == "fit" {
			w += lt.sumWall("auto.candidate") // AutoExplain fits outside the engine's fit stage
		}
		put("core.stage_ms."+st, w/n, "ms")
	}
	put("core.unspanned_ms", (lt.selfMs["gef.explain"]+lt.selfMs["gef.auto_explain"])/n, "ms")
	for _, fam := range families {
		put("core.fidelity_ms."+fam, lt.meanWall("gef.fidelity", "family", fam), "ms")
	}
	var hits, misses float64
	for _, st := range stages {
		h, ms := series("engine.cache_hits", st), series("engine.cache_misses", st)
		hits, misses = hits+h, misses+ms
		put("core.cache_hits."+st, h/n, "count")
		put("core.cache_misses."+st, ms/n, "count")
	}
	put("core.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	put("core.cache_lookups_per_op", (hits+misses)/n, "count")
	put("core.cache_mb", cacheMB, "MB")

	// gam
	put("gam.fit_ms.identity", lt.meanWall("gam.fit", "link", "identity"), "ms")
	put("gam.fit_ms.logit", lt.meanWall("gam.fit", "link", "logit"), "ms")
	put("gam.fits_per_op", perOp("gam.fits"), "count")
	put("gam.gcv_evals_per_op", perOp("gam.gcv_evals"), "count")
	put("gam.pirls_iters_per_op", (snap1.Histograms["gam.pirls_iters"].Sum-snap0.Histograms["gam.pirls_iters"].Sum)/n, "count")
	put("gam.numerical_warnings_per_op", perOp("gam.numerical_warnings"), "count")
	put("rules.fit_ms", lt.meanWall("rules.fit", "", ""), "ms")
	put("smoother.fit_ms", lt.meanWall("smoother.fit", "", ""), "ms")

	// serve: per explain request.
	ex := float64(max(tr.kinds["explain"], 1))
	rt, eng, msh := lt.kindWall["explain"]/ex, lt.sumWall("serve.explain")/ex, lt.sumWall("gef.marshal_explanation")/ex
	if !isServe {
		rt, eng, msh = 0, 0, 0
	}
	put("serve.roundtrip_ms", rt, "ms")
	put("serve.engine_ms", eng, "ms")
	put("serve.marshal_ms", msh, "ms")
	put("serve.overhead_ms", rt-eng-msh, "ms")
	put("serve.response_kb", float64(tr.respBytes["explain"])/1024/ex, "KB")
	coal := float64(st1.CoalesceHits - st0.CoalesceHits)
	put("serve.coalesce_hit_ratio", coal/max(coal+float64(st1.CoalesceLeads-st0.CoalesceLeads), 1), "ratio")
	put("serve.shed_ops", float64(st1.Shed-st0.Shed), "count")

	// shap, sampling, forest counters.
	put("shap.roundtrip_ms", lt.kindWall["shap"]/float64(max(tr.kinds["shap"], 1)), "ms")
	put("shap.node_visits_per_op", perOp("shap.node_visits"), "count")
	put("sampling.rows_per_op", perOp("sampling.rows_generated"), "count")
	put("forest.rows_labeled_per_op", perOp("forest.flat_kernel_rows"), "count")
	put("forest.flat_compiles_per_op", perOp("forest.flat_compiles"), "count")
	put("forest.flat_cache_hits_per_op", perOp("forest.flat_cache_hits"), "count")

	// par and runtime, from the untraced phase.
	bn := float64(max(base.attempted, 1))
	put("par.busy_cores", base.cpu.Seconds()/base.wall.Seconds(), "cores")
	put("par.inline_ratio", delta("par.inline_calls")/max(delta("par.for_calls"), 1), "ratio")
	put("runtime.alloc_mb_per_op", float64(base.allocBytes)/(1<<20)/bn, "MB")
	put("runtime.gc_cycles_per_op", float64(base.gcCycles)/bn, "count")

	// obs: what tracing costs and how much op time no layer claims.
	put("obs.trace_overhead_pct", (tr.cpuMsPerOp()/base.cpuMsPerOp()-1)*100, "%")
	put("layers.unattributed_pct", 100*lt.selfMs["bench.op"]/max(lt.opMs, 1e-9), "%")

	// Kernel microbenchmarks on the workload forests, tracing off.
	forests := models
	if !isServe {
		forests = models[:1]
	}
	for _, b := range []int{1, 64, 4096} {
		put(fmt.Sprintf("forest.predict_ns_per_row.b%d", b), predictNsPerRow(ctx, forests, b), "ns")
	}
	put("forest.fingerprint_us", perCallUs(forests, func(md *model, _ int) { md.f.Fingerprint() }), "us")
	put("forest.validate_us", perCallUs(forests, func(md *model, _ int) {
		if err := md.f.Validate(); err != nil {
			panic(err) // validated at set-up; a change here is a bug
		}
	}), "us")
	put("shap.values_us", perCallUs(forests, func(md *model, i int) { shap.Values(md.f, md.data.X[i%len(md.data.X)]) }), "us")

	failed := base.failed + tr.failed
	return &result{Correct: failed == 0, Attempted: base.attempted + tr.attempted, Failed: failed, Metrics: m}, nil
}

// microBudget is how long each kernel microbenchmark runs.
const microBudget = 150 * time.Millisecond

// predictNsPerRow times Forest.RawPredictBatchCtx at batch size b (at
// most the dataset's row count) over the dataset rows, in ns per row.
func predictNsPerRow(ctx context.Context, ms []*model, b int) float64 {
	rows, off := 0, 0
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		for _, md := range ms {
			x := md.data.X
			k := min(b, len(x))
			if off+k > len(x) {
				off = 0
			}
			if _, err := md.f.RawPredictBatchCtx(ctx, x[off:off+k]); err != nil {
				panic(err) // background context: cannot fail
			}
			rows += k
		}
		off += b
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rows)
}

// perCallUs times fn in µs per call, alternating over the forests.
func perCallUs(ms []*model, fn func(md *model, i int)) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		for _, md := range ms {
			fn(md, calls)
			calls++
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(calls)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []obs.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable is the traced phase's time accounting.
type layerTable struct {
	ops    int
	opMs   float64            // Σ bench.op wall
	selfMs map[string]float64 // Σ self time per span name
	// walls holds every span's wall (ms) with its attributes, by name.
	walls    map[string][]spanWall
	kindWall map[string]float64 // Σ bench.roundtrip wall by op kind
}

type spanWall struct {
	ms    float64
	attrs []obs.Attr
}

func (lt *layerTable) sumWall(name string) float64 {
	var s float64
	for _, w := range lt.walls[name] {
		s += w.ms
	}
	return s
}

// meanWall is the mean wall (ms) of the spans named name whose attribute
// key equals val (every span when key is empty); 0 when there are none.
func (lt *layerTable) meanWall(name, key, val string) float64 {
	var s float64
	var c int
	for _, w := range lt.walls[name] {
		if key != "" && !hasAttr(w.attrs, key, val) {
			continue
		}
		s += w.ms
		c++
	}
	if c == 0 {
		return 0
	}
	return s / float64(c)
}

func hasAttr(attrs []obs.Attr, key, val string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return fmt.Sprint(a.Value) == val
		}
	}
	return false
}

// attribute splits each op's wall time among the spans it crossed. An op
// is a bench.op span tree. Server-side spans start a tree of their own
// (gefd detaches computations from the request context), so a root span
// that starts inside an op's bench.roundtrip is attached under it: one
// client with one request in flight makes that assignment exact. Each
// instant of an op is then charged to the deepest span open at that
// instant — a span's self time — so the self times of an op sum to its
// wall time exactly. Time charged to bench.op itself is time in the
// benchmark client, outside every layer: the unattributed share.
func attribute(spans []obs.SpanData) *layerTable {
	lt := &layerTable{selfMs: map[string]float64{}, walls: map[string][]spanWall{}, kindWall: map[string]float64{}}
	byID := make(map[uint64]int, len(spans))
	kids := map[uint64][]int{}
	var ops, trips []int
	for i, sp := range spans {
		byID[sp.ID] = i
		lt.walls[sp.Name] = append(lt.walls[sp.Name], spanWall{ms(sp.Wall), sp.Attrs})
		switch sp.Name {
		case "bench.op":
			ops = append(ops, i)
		case "bench.roundtrip":
			trips = append(trips, i)
		}
	}
	sort.Slice(trips, func(a, b int) bool { return spans[trips[a]].Start.Before(spans[trips[b]].Start) })
	for i, sp := range spans {
		if sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; ok {
				kids[sp.Parent] = append(kids[sp.Parent], i)
			}
			continue
		}
		if strings.HasPrefix(sp.Name, "bench.") {
			continue
		}
		// The last roundtrip starting at or before sp, if sp lies within it.
		k := sort.Search(len(trips), func(j int) bool { return spans[trips[j]].Start.After(sp.Start) }) - 1
		if k >= 0 {
			t := spans[trips[k]]
			if !sp.Start.Add(sp.Wall).After(t.Start.Add(t.Wall)) {
				kids[t.ID] = append(kids[t.ID], i)
			}
		}
	}
	type node struct {
		i     int
		depth int
	}
	for _, oi := range ops {
		op := spans[oi]
		lt.ops++
		lt.opMs += ms(op.Wall)
		var tree []node
		stack := []node{{oi, 0}}
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tree = append(tree, nd)
			for _, c := range kids[spans[nd.i].ID] {
				stack = append(stack, node{c, nd.depth + 1})
			}
			if spans[nd.i].Name == "bench.roundtrip" {
				kind := "explain"
				for _, a := range op.Attrs {
					if a.Key == "kind" {
						kind = fmt.Sprint(a.Value)
					}
				}
				lt.kindWall[kind] += ms(spans[nd.i].Wall)
			}
		}
		var cuts []time.Time
		for _, nd := range tree {
			sp := spans[nd.i]
			cuts = append(cuts, sp.Start, sp.Start.Add(sp.Wall))
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a].Before(cuts[b]) })
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			if !hi.After(lo) {
				continue
			}
			best := -1
			for j, nd := range tree {
				sp := spans[nd.i]
				if sp.Start.After(lo) || sp.Start.Add(sp.Wall).Before(hi) {
					continue
				}
				if best < 0 || nd.depth > tree[best].depth {
					best = j
				}
			}
			if best >= 0 {
				lt.selfMs[spans[tree[best].i].Name] += ms(hi.Sub(lo))
			}
		}
	}
	return lt
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerOf names the layer (module) a span belongs to.
func layerOf(span string) string {
	switch {
	case span == "bench.op":
		return "unattributed"
	case span == "bench.roundtrip", span == "serve.explain", span == "serve.autoexplain":
		return "serve"
	case span == "serve.shap":
		return "shap"
	case strings.HasPrefix(span, "engine."), strings.HasPrefix(span, "gef."), strings.HasPrefix(span, "auto."):
		return "core"
	}
	if i := strings.IndexByte(span, '.'); i > 0 {
		return span[:i]
	}
	return span
}

// printLayers writes the per-layer table: self time per op by layer and
// by span, as a share of op wall time.
func printLayers(w io.Writer, workload string, lt *layerTable) {
	n := float64(max(lt.ops, 1))
	byLayer := map[string]float64{}
	names := make([]string, 0, len(lt.selfMs))
	for name, v := range lt.selfMs {
		byLayer[layerOf(name)] += v
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return lt.selfMs[names[a]] > lt.selfMs[names[b]] })
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	fmt.Fprintf(w, "layers %s: %d traced ops, %.3f ms/op wall\n", workload, lt.ops, lt.opMs/n)
	fmt.Fprintf(w, "  %-14s %-34s %12s %8s\n", "layer", "span (self time)", "ms/op", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-14s %-34s %12.4f %7.2f%%\n", l, "", byLayer[l]/n, 100*byLayer[l]/max(lt.opMs, 1e-9))
		for _, name := range names {
			if layerOf(name) == l {
				fmt.Fprintf(w, "  %-14s %-34s %12.4f %7.2f%%\n", "", name, lt.selfMs[name]/n, 100*lt.selfMs[name]/max(lt.opMs, 1e-9))
			}
		}
	}
}

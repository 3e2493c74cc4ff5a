package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// decodeChrome parses WriteChromeTrace output and schema-checks every
// event: required fields present, a known phase, and the X events on
// every lane (tid) properly nested, which the Chrome viewer requires.
func decodeChrome(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	lanes := map[uint64][]chromeEvent{}
	for i, ev := range events {
		if ev.Name == "" || ev.PID != 1 {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		switch ev.Phase {
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("event %d: X without duration: %+v", i, ev)
			}
			lanes[ev.TID] = append(lanes[ev.TID], ev)
		case "i":
			if ev.Scope != "t" {
				t.Fatalf("event %d: instant without thread scope: %+v", i, ev)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Phase)
		}
	}
	const eps = 1e-3 // µs: one nanosecond of float rounding
	for tid, xs := range lanes {
		sort.SliceStable(xs, func(a, b int) bool {
			if xs[a].TS != xs[b].TS {
				return xs[a].TS < xs[b].TS
			}
			return xs[a].Dur > xs[b].Dur
		})
		var ends []float64 // open slices' end times, outermost first
		for _, ev := range xs {
			for len(ends) > 0 && ends[len(ends)-1] <= ev.TS+eps {
				ends = ends[:len(ends)-1]
			}
			if n := len(ends); n > 0 && ev.TS+ev.Dur > ends[n-1]+eps {
				t.Fatalf("tid %d: %q [%v, %v] overlaps an enclosing slice ending at %v",
					tid, ev.Name, ev.TS, ev.TS+ev.Dur, ends[n-1])
			}
			ends = append(ends, ev.TS+ev.Dur)
		}
	}
	return events
}

func renderChrome(t *testing.T, spans []SpanData) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return decodeChrome(t, buf.Bytes())
}

// TestChromeTraceFromLiveSpans renders spans recorded from real
// Start/End calls: a sequential stage chain with an event, then a
// concurrent fan-out like a par.For.
func TestChromeTraceFromLiveSpans(t *testing.T) {
	ms := NewMemorySink()
	withSink(t, ms)

	ctx, parent := Start(context.Background(), "explain", Str("model", "m"))
	_, child := Start(ctx, "gam.fit")
	time.Sleep(100 * time.Microsecond)
	child.Event("converged", Int("iter", 3))
	child.End()
	fctx, fan := Start(ctx, "fanout")
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	ready.Add(3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		//lint:ignore rawgo test builds overlapping sibling spans directly
		go func() {
			defer wg.Done()
			_, w := Start(fctx, "worker")
			ready.Done()
			ready.Wait() // all three open at once
			w.End()
		}()
	}
	wg.Wait()
	fan.End()
	parent.End()

	events := renderChrome(t, ms.Spans())
	phases := map[string]int{}
	tid := map[string]uint64{}
	workerLanes := map[uint64]bool{}
	for _, ev := range events {
		phases[ev.Phase]++
		tid[ev.Name] = ev.TID
		if ev.Name == "worker" {
			workerLanes[ev.TID] = true
		}
	}
	if phases["X"] != 6 || phases["i"] != 1 {
		t.Fatalf("phase tally = %v", phases)
	}
	// Sequential parent/child/event share one lane.
	if tid["gam.fit"] != tid["explain"] || tid["converged"] != tid["explain"] || tid["fanout"] != tid["explain"] {
		t.Errorf("sequential nesting split lanes: %v", tid)
	}
	// The overlapping workers need at least two more lanes.
	if len(workerLanes) != 3 {
		t.Errorf("3 overlapping workers on %d lanes, want 3", len(workerLanes))
	}
	var sawModel bool
	for _, ev := range events {
		if ev.Name == "explain" && ev.Args["model"] == "m" {
			sawModel = true
		}
	}
	if !sawModel {
		t.Error("explain event missing model arg")
	}
}

// TestChromeTraceLaneSplitting feeds overlapping sibling spans — the
// shape par fan-outs produce — and checks the first keeps the parent's
// lane while the overlapping one moves to a fresh lane.
func TestChromeTraceLaneSplitting(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	ms := time.Millisecond
	spans := []SpanData{ // end order, as a trace file holds them
		{ID: 3, Parent: 1, Name: "fit.b", Start: t0.Add(ms), Wall: 2 * ms},
		{ID: 2, Parent: 1, Name: "fit.a", Start: t0.Add(ms), Wall: 3 * ms},
		{ID: 4, Parent: 1, Name: "fit.c", Start: t0.Add(4 * ms), Wall: ms},
		{ID: 1, Name: "grid", Start: t0, Wall: 5 * ms},
	}
	tidOf := map[string]uint64{}
	for _, ev := range renderChrome(t, spans) {
		tidOf[ev.Name] = ev.TID
	}
	if tidOf["fit.a"] != tidOf["grid"] {
		t.Errorf("first child should share the parent lane: %v", tidOf)
	}
	if tidOf["fit.b"] == tidOf["fit.a"] || tidOf["fit.b"] != 3 {
		t.Errorf("overlapping sibling not on its own lane: %v", tidOf)
	}
	if tidOf["fit.c"] != tidOf["grid"] {
		t.Errorf("a sibling starting after fit.a ended should reuse the parent lane: %v", tidOf)
	}
}

// TestChromeTraceOrphanSpan covers records whose parent is not in the
// trace (a sink installed mid-span): each opens its own lane.
func TestChromeTraceOrphanSpan(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	events := renderChrome(t, []SpanData{
		{ID: 9, Parent: 5, Name: "orphan", Start: t0, Wall: time.Millisecond},
		{ID: 10, Parent: 6, Name: "lost_event", Start: t0.Add(time.Microsecond)},
	})
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if ev := events[0]; ev.Phase != "X" || ev.TID != 9 || ev.Dur != 1000 || ev.TS != 0 {
		t.Errorf("orphan span = %+v", ev)
	}
	if ev := events[1]; ev.Phase != "i" || ev.TID != 10 || ev.TS != 1 {
		t.Errorf("orphan event = %+v", ev)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("empty trace = %q, want []", buf.String())
	}
}

// TestChromeTraceLanesNestProperty renders random span sets — arbitrary
// lineage, overlaps, children that start early or outlive their parent,
// zero-wall events — and requires one event per record and properly
// nested X events on every lane.
func TestChromeTraceLanesNestProperty(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		spans := make([]SpanData, n)
		zero := 0
		for i := range spans {
			sp := &spans[i]
			sp.ID = uint64(i + 1)
			sp.Name = "s"
			if i > 0 && rng.Intn(5) > 0 {
				sp.Parent = uint64(1 + rng.Intn(i))
			}
			sp.Start = t0.Add(time.Duration(rng.Intn(2000)) * time.Microsecond)
			if rng.Intn(8) == 0 {
				zero++
			} else {
				sp.Wall = time.Duration(1+rng.Intn(1000)) * time.Microsecond
			}
		}
		rng.Shuffle(n, func(a, b int) { spans[a], spans[b] = spans[b], spans[a] })
		events := renderChrome(t, spans)
		if len(events) != n {
			t.Fatalf("seed %d: %d events for %d records", seed, len(events), n)
		}
		instants := 0
		for _, ev := range events {
			if ev.Phase == "i" {
				instants++
			}
		}
		if instants != zero {
			t.Fatalf("seed %d: %d instants for %d zero-wall records", seed, instants, zero)
		}
	}
}

// TestTraceFileRoundTrip writes a -trace file through JSONSink next to a
// MemorySink and requires ReadTraceFile to return the same records.
func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMemorySink()
	js := NewJSONSink(f)
	withSink(t, NewSinkTee(js, ms))

	ctx, outer := Start(context.Background(), "outer", Str("strategy", "equi-size"), Int("k", 64))
	_, inner := Start(ctx, "inner", F64("rmse", 0.25), Bool("ok", true))
	inner.Event("early_stop", Int("iteration", 3))
	inner.End()
	outer.End()
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatalf("ReadTraceFile: %v", err)
	}
	want := ms.Spans()
	if len(got) != len(want) {
		t.Fatalf("read %d records, sink saw %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name || g.Depth != w.Depth ||
			!g.Start.Equal(w.Start) || g.Wall != w.Wall {
			t.Errorf("record %d: read %+v, want %+v", i, g, w)
		}
		// Attribute values decode as JSON types, so compare encodings.
		gj, _ := json.Marshal(g.Attrs)
		wj, _ := json.Marshal(w.Attrs)
		if !bytes.Equal(gj, wj) {
			t.Errorf("record %d attrs: read %s, want %s", i, gj, wj)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(cut, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(cut); err == nil {
		t.Error("truncated trace read without error")
	}
}

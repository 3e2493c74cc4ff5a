package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withSink installs s for the duration of the test and restores the
// disabled state afterwards.
func withSink(t *testing.T, s Sink) {
	t.Helper()
	SetSink(s)
	t.Cleanup(func() { SetSink(nil) })
}

func TestNilSpanIsInert(t *testing.T) {
	// Start never returns nil, but every method of a nil span no-ops so
	// code holding an optional span needs no checks.
	var sp *Span
	sp.Set(Str("a", "b"))
	sp.Event("ev")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End returned %v", d)
	}
	if sp.Name() != "" || sp.Wall() != 0 {
		t.Fatalf("nil span Name/Wall = %q/%v", sp.Name(), sp.Wall())
	}
}

func TestSpanNestingAndOrdering(t *testing.T) {
	ms := NewMemorySink()
	withSink(t, ms)

	ctx := context.Background()
	ctx1, parent := Start(ctx, "parent")
	ctx2, child := Start(ctx1, "child")
	_, grandchild := Start(ctx2, "grandchild")
	grandchild.End()
	child.End()
	// A sibling of child under parent, opened after child ended.
	_, sibling := Start(ctx1, "sibling")
	sibling.End()
	parent.End()

	spans := ms.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// End order: innermost first.
	wantOrder := []string{"grandchild", "child", "sibling", "parent"}
	byName := map[string]SpanData{}
	for i, sp := range spans {
		if sp.Name != wantOrder[i] {
			t.Errorf("end order[%d] = %s, want %s", i, sp.Name, wantOrder[i])
		}
		byName[sp.Name] = sp
	}
	// Parent links and depths.
	if byName["child"].Parent != byName["parent"].ID {
		t.Errorf("child.Parent = %d, want %d", byName["child"].Parent, byName["parent"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild.Parent = %d, want %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["sibling"].Parent != byName["parent"].ID {
		t.Errorf("sibling.Parent = %d, want %d", byName["sibling"].Parent, byName["parent"].ID)
	}
	for name, depth := range map[string]int{"parent": 0, "child": 1, "sibling": 1, "grandchild": 2} {
		if byName[name].Depth != depth {
			t.Errorf("%s.Depth = %d, want %d", name, byName[name].Depth, depth)
		}
	}
	// Wall times are populated and parent ≥ child.
	if byName["parent"].Wall < byName["child"].Wall {
		t.Errorf("parent wall %v < child wall %v", byName["parent"].Wall, byName["child"].Wall)
	}
}

func TestSpanEventAndAttrs(t *testing.T) {
	ms := NewMemorySink()
	withSink(t, ms)

	_, sp := Start(context.Background(), "stage", Int("n", 7))
	sp.Event("early_stop", Int("iteration", 3))
	sp.Set(F64("rmse", 0.5))
	sp.End()

	spans := ms.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want event + span", len(spans))
	}
	ev, main := spans[0], spans[1]
	if ev.Name != "early_stop" || ev.Parent != main.ID || ev.Wall != 0 {
		t.Errorf("event = %+v", ev)
	}
	got := map[string]any{}
	for _, a := range main.Attrs {
		got[a.Key] = a.Value
	}
	if got["n"] != 7 || got["rmse"] != 0.5 {
		t.Errorf("attrs = %v", got)
	}
}

func TestEndIdempotent(t *testing.T) {
	ms := NewMemorySink()
	withSink(t, ms)
	_, sp := Start(context.Background(), "once")
	sp.End()
	sp.End()
	if n := len(ms.Spans()); n != 1 {
		t.Fatalf("double End emitted %d spans", n)
	}
}

func TestJSONSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	js := NewJSONSink(&buf)
	withSink(t, js)

	ctx, parent := Start(context.Background(), "outer", Str("strategy", "equi-size"))
	_, child := Start(ctx, "inner", Int("k", 64))
	child.End()
	parent.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var inner, outer SpanData
	if err := json.Unmarshal([]byte(lines[0]), &inner); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &outer); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if inner.Name != "inner" || outer.Name != "outer" {
		t.Fatalf("names = %q, %q", inner.Name, outer.Name)
	}
	if inner.Parent != outer.ID || inner.Depth != 1 {
		t.Errorf("inner parent/depth = %d/%d, want %d/1", inner.Parent, inner.Depth, outer.ID)
	}
	if outer.Wall <= 0 {
		t.Errorf("outer wall = %v", outer.Wall)
	}
	if len(inner.Attrs) != 1 || inner.Attrs[0].Key != "k" {
		t.Errorf("inner attrs = %v", inner.Attrs)
	}
	// json decodes numbers into float64.
	if v, ok := inner.Attrs[0].Value.(float64); !ok || v != 64 {
		t.Errorf("inner k = %v", inner.Attrs[0].Value)
	}
}

func TestTextSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	withSink(t, NewTextSink(&buf))

	ctx, parent := Start(context.Background(), "gef.explain")
	_, child := Start(ctx, "gam.fit", Int("rows", 100))
	child.End()
	parent.End()

	// One line per completed span, in end order, indented by depth.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "   gam.fit ") || !strings.HasSuffix(lines[0], " (rows=100)") {
		t.Errorf("child line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "gef.explain ") {
		t.Errorf("parent line = %q", lines[1])
	}
}

// TestTextSinkMatchesFlightText pins the single span renderer: the -v
// line of a span is the tail of its flight-dump line.
func TestTextSinkMatchesFlightText(t *testing.T) {
	var buf bytes.Buffer
	withSink(t, NewTextSink(&buf))
	fr := withFlight(t, NewRecorder(16))

	_, sp := Start(context.Background(), "gam.fit", F64("lambda", 0.01), Str("link", "logit"))
	time.Sleep(time.Millisecond)
	sp.End()

	var dump bytes.Buffer
	if err := WriteFlightText(&dump, fr.Snapshot()); err != nil {
		t.Fatalf("WriteFlightText: %v", err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	if !strings.Contains(line, " (lambda=0.01 link=logit)") {
		t.Fatalf("-v line = %q", line)
	}
	if !strings.Contains(dump.String(), " "+line+"\n") {
		t.Errorf("flight dump does not end its span line with the -v line %q:\n%s", line, dump.String())
	}
}

// nopSink is an installed sink that does no work, so a traced span
// costs exactly what the span machinery adds.
type nopSink struct{}

func (nopSink) End(*SpanData) {}
func (nopSink) Flush() error  { return nil }

// spanPairNs times n Start/End pairs and returns ns per pair.
func spanPairNs(n int) float64 {
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, sp := Start(ctx, "gate.span")
		sp.End()
	}
	return float64(time.Since(t0)) / float64(n)
}

// TestTracedSpanOverheadGate bounds the observer effect: with a sink
// installed, a Start/End pair may cost at most 3x an untraced one. Both
// legs are measured interleaved on this host and the best round of each
// is compared, so the gate is a same-host ratio. A stop-the-world call
// per span (runtime.ReadMemStats costs tens of microseconds) fails it.
func TestTracedSpanOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts per-span costs; gate runs in pure builds")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("ratio gate needs 2+ cores; a contended scheduler turns wall-clock ratios into noise")
	}
	withFlight(t, NewRecorder(DefaultFlightCapacity))
	SetPprofLabels(false)
	t.Cleanup(func() { SetSink(nil) })

	const pairs, rounds = 2000, 9
	untraced, traced := math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		SetSink(nil)
		untraced = math.Min(untraced, spanPairNs(pairs))
		SetSink(nopSink{})
		traced = math.Min(traced, spanPairNs(pairs))
	}
	ratio := traced / untraced
	t.Logf("Start/End pair on %d cores: untraced %.0f ns, traced %.0f ns (%.2fx)", runtime.NumCPU(), untraced, traced, ratio)
	if ratio > 3 {
		t.Errorf("a traced span costs %.1fx an untraced one (%.0f vs %.0f ns), budget is 3x", ratio, traced, untraced)
	}
}

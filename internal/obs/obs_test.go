package obs

import (
	"bytes"
	"context"
	"encoding/json"
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

func TestDisabledStartIsInert(t *testing.T) {
	SetSink(nil)
	SetPprofLabels(false)
	// The flight recorder keeps spans live even with tracing off; fully
	// inert Start requires disabling it too.
	Flight().SetEnabled(false)
	t.Cleanup(func() { Flight().SetEnabled(true) })
	ctx := context.Background()
	nctx, sp := Start(ctx, "anything", Int("k", 1))
	if sp != nil {
		t.Fatalf("disabled Start returned a live span")
	}
	if nctx != ctx {
		t.Fatalf("disabled Start derived a new context")
	}
	// All methods must no-op on the nil span.
	sp.Set(Str("a", "b"))
	sp.Event("ev")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End returned %v", d)
	}
	if Enabled() {
		t.Fatal("Enabled() = true with no sink and no labels")
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

func TestAllocDeltaCapture(t *testing.T) {
	ms := NewMemorySink()
	withSink(t, ms)

	const size = 1 << 20
	_, sp := Start(context.Background(), "alloc")
	sink := make([]byte, size)
	for i := range sink {
		sink[i] = byte(i)
	}
	sp.End()
	if n := len(sink); n != size { // keep the slice alive past End
		t.Fatalf("len = %d", n)
	}
	spans := ms.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].AllocBytes < size {
		t.Errorf("AllocBytes = %d, want ≥ %d", spans[0].AllocBytes, size)
	}
	if spans[0].AllocObjects == 0 {
		t.Errorf("AllocObjects = 0, want > 0")
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

func TestStartAlwaysMeasuresWithoutSink(t *testing.T) {
	SetSink(nil)
	SetPprofLabels(false)
	_, sp := StartAlways(context.Background(), "timed")
	if sp == nil {
		t.Fatal("StartAlways returned nil span")
	}
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("wall = %v, want ≥ 1ms", d)
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

	out := buf.String()
	for _, want := range []string{"-> gef.explain", "   -> gam.fit", "<- gam.fit", "rows=100", "<- gef.explain"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

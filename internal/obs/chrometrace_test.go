package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// decodeTrace parses the sink output as a trace_event JSON array and
// schema-checks every event: required fields present, known phase, and
// per-lane B/E streams properly nested.
func decodeTrace(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	stacks := map[uint64][]string{} // tid → open span names
	for i, ev := range events {
		if ev.Name == "" || ev.PID != 1 {
			t.Fatalf("event %d missing required fields: %+v", i, ev)
		}
		switch ev.Phase {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q on tid %d with empty stack", i, ev.Name, ev.TID)
			}
			if st[len(st)-1] != ev.Name {
				t.Fatalf("event %d: E %q does not match open span %q on tid %d", i, ev.Name, st[len(st)-1], ev.TID)
			}
			stacks[ev.TID] = st[:len(st)-1]
		case "i":
			if ev.Scope != "t" {
				t.Fatalf("event %d: instant without thread scope: %+v", i, ev)
			}
		case "X":
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Phase)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("tid %d left open spans %v", tid, st)
		}
	}
	return events
}

func TestChromeTraceFromLiveSpans(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeTraceSink(&buf)
	withSink(t, cs)

	ctx, parent := Start(context.Background(), "explain", Str("model", "m"))
	ctx2, child := Start(ctx, "gam.fit")
	child.Event("converged", Int("iter", 3))
	_ = ctx2
	child.End()
	parent.End()
	if err := cs.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	events := decodeTrace(t, buf.Bytes())
	phases := map[string]int{}
	for _, ev := range events {
		phases[ev.Phase]++
	}
	if phases["B"] != 2 || phases["E"] != 2 || phases["i"] != 1 {
		t.Fatalf("phase tally = %v", phases)
	}
	// Sequential parent/child share one lane.
	lanes := map[uint64]bool{}
	for _, ev := range events {
		lanes[ev.TID] = true
	}
	if len(lanes) != 1 {
		t.Errorf("sequential nesting used %d lanes, want 1", len(lanes))
	}
	// End args carry the span attributes.
	var sawModel bool
	for _, ev := range events {
		if ev.Phase == "E" && ev.Name == "explain" && ev.Args["model"] == "m" {
			sawModel = true
		}
	}
	if !sawModel {
		t.Error("explain end event missing model arg")
	}
}

// TestChromeTraceLaneSplitting feeds the sink overlapping sibling spans
// — the shape par fan-outs produce — and checks they land on
// separate lanes so each lane's B/E stream stays properly nested.
func TestChromeTraceLaneSplitting(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeTraceSink(&buf)
	t0 := time.Unix(1700000000, 0)

	root := SpanData{ID: 1, Name: "grid", Start: t0}
	s1 := SpanData{ID: 2, Parent: 1, Name: "fit.a", Start: t0.Add(time.Millisecond)}
	s2 := SpanData{ID: 3, Parent: 1, Name: "fit.b", Start: t0.Add(time.Millisecond)}
	cs.Begin(&root)
	cs.Begin(&s1) // inherits root's lane; root no longer top of stack
	cs.Begin(&s2) // overlaps s1 → fresh lane
	s2.Wall = 2 * time.Millisecond
	cs.End(&s2)
	s1.Wall = 3 * time.Millisecond
	cs.End(&s1)
	root.Wall = 5 * time.Millisecond
	cs.End(&root)
	if err := cs.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	events := decodeTrace(t, buf.Bytes())
	tidOf := map[string]uint64{}
	for _, ev := range events {
		if ev.Phase == "B" {
			tidOf[ev.Name] = ev.TID
		}
	}
	if tidOf["fit.a"] != tidOf["grid"] {
		t.Errorf("first child should share the parent lane: %v", tidOf)
	}
	if tidOf["fit.b"] == tidOf["fit.a"] {
		t.Errorf("overlapping siblings share lane %d", tidOf["fit.b"])
	}
}

func TestChromeTraceEndWithoutBegin(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeTraceSink(&buf)
	sp := SpanData{ID: 9, Name: "orphan", Start: time.Unix(1700000000, 0), Wall: time.Millisecond}
	cs.End(&sp)
	if err := cs.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())
	if len(events) != 1 || events[0].Phase != "X" || events[0].Dur != 1000 {
		t.Fatalf("orphan end = %+v", events)
	}
}

func TestChromeTraceEmptyFlush(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeTraceSink(&buf)
	if err := cs.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	decodeTrace(t, buf.Bytes())
	if err := cs.Flush(); err != nil { // idempotent
		t.Fatalf("second Flush: %v", err)
	}
}

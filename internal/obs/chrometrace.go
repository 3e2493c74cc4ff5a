package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// ChromeTraceSink writes spans as Chrome trace_event JSON (the "JSON
// Array Format"), loadable directly in chrome://tracing and Perfetto:
// Engine stage timelines, the par worker fan-out and SHAP hot paths
// render as nested duration slices on a shared time axis. Selected on
// the CLIs with -trace-format=chrome.
//
// Span mapping:
//
//   - a span becomes a B ("begin") event at Start and an E ("end") event
//     at End, with ts in microseconds since the Unix epoch;
//   - span events (zero-wall Event records) become instant events
//     (ph "i", scope "t");
//   - pid is always 1; tid is a lane derived from the span lineage: a
//     span inherits its parent's lane while it is the only open child,
//     and overlapping siblings (par fan-outs, concurrent requests) are
//     moved to fresh lanes keyed by their own span id. Lanes are
//     goroutine-stable — a span and its same-goroutine descendants stay
//     on one lane — so every lane's B/E stream is properly nested, which
//     the Chrome viewer requires;
//   - End attributes (plus the heap-allocation deltas) land in args.
//
// A span that ends without a recorded begin (the sink was installed
// mid-span) degrades to a self-contained X ("complete") event.
type ChromeTraceSink struct {
	mu     sync.Mutex
	w      io.Writer
	err    error // first write error, surfaced by Flush
	wrote  bool  // whether any event has been emitted (comma placement)
	closed bool

	lanes map[uint64]uint64   // span id → lane (tid)
	open  map[uint64][]uint64 // lane → stack of open span ids
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewChromeTraceSink returns a sink writing one JSON event array to w.
// Call Flush to terminate the array; without it most viewers still load
// the file (the array format tolerates a missing closing bracket), but
// Flush also surfaces any write error.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	return &ChromeTraceSink{
		w:     w,
		lanes: make(map[uint64]uint64),
		open:  make(map[uint64][]uint64),
	}
}

// emit writes one event, handling the array framing. Caller holds mu.
func (c *ChromeTraceSink) emit(ev chromeEvent) {
	if c.err != nil || c.closed {
		return
	}
	prefix := ",\n"
	if !c.wrote {
		prefix = "[\n"
	}
	data, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if _, err := io.WriteString(c.w, prefix); err != nil {
		c.err = err
		return
	}
	if _, err := c.w.Write(data); err != nil {
		c.err = err
		return
	}
	c.wrote = true
}

// usec converts a SpanData timestamp to trace_event microseconds.
func usec(sp *SpanData) float64 { return float64(sp.Start.UnixNano()) / 1e3 }

// lane resolves the tid for a new span: the parent's lane when the
// parent is the innermost open span there, otherwise a fresh lane named
// by the span's own id.
func (c *ChromeTraceSink) lane(sp *SpanData) uint64 {
	if sp.Parent != 0 {
		if l, ok := c.lanes[sp.Parent]; ok {
			stack := c.open[l]
			if len(stack) > 0 && stack[len(stack)-1] == sp.Parent {
				return l
			}
		}
	}
	return sp.ID
}

func (c *ChromeTraceSink) Begin(sp *SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.lane(sp)
	c.lanes[sp.ID] = l
	c.open[l] = append(c.open[l], sp.ID)
	c.emit(chromeEvent{Name: sp.Name, Cat: "gef", Phase: "B", TS: usec(sp), PID: 1, TID: l})
}

func (c *ChromeTraceSink) End(sp *SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, begun := c.lanes[sp.ID]
	args := spanArgs(sp)
	switch {
	case !begun && sp.Wall == 0:
		// An instant span event: attach it to the owning span's lane.
		pl, ok := c.lanes[sp.Parent]
		if !ok {
			pl = sp.ID
		}
		c.emit(chromeEvent{Name: sp.Name, Cat: "gef", Phase: "i", TS: usec(sp), PID: 1, TID: pl, Scope: "t", Args: args})
	case !begun:
		// End without Begin (sink installed mid-span): a complete event.
		c.emit(chromeEvent{Name: sp.Name, Cat: "gef", Phase: "X",
			TS: usec(sp), Dur: float64(sp.Wall.Microseconds()), PID: 1, TID: sp.ID, Args: args})
	default:
		delete(c.lanes, sp.ID)
		if stack := c.open[l]; len(stack) > 0 && stack[len(stack)-1] == sp.ID {
			if len(stack) == 1 {
				delete(c.open, l)
			} else {
				c.open[l] = stack[:len(stack)-1]
			}
		}
		c.emit(chromeEvent{Name: sp.Name, Cat: "gef", Phase: "E",
			TS: usec(sp) + float64(sp.Wall.Microseconds()), PID: 1, TID: l, Args: args})
	}
}

// spanArgs flattens attributes and allocation deltas for the viewer's
// slice-details pane.
func spanArgs(sp *SpanData) map[string]any {
	if len(sp.Attrs) == 0 && sp.AllocBytes == 0 {
		return nil
	}
	args := make(map[string]any, len(sp.Attrs)+2)
	for _, a := range sp.Attrs {
		args[a.Key] = a.Value
	}
	if sp.AllocBytes > 0 {
		args["alloc_bytes"] = sp.AllocBytes
		args["alloc_objects"] = sp.AllocObjects
	}
	return args
}

// Flush terminates the JSON array and reports the first write error.
// Further events are dropped.
func (c *ChromeTraceSink) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		suffix := "\n]\n"
		if !c.wrote {
			suffix = "[]\n"
		}
		if _, err := io.WriteString(c.w, suffix); err != nil && c.err == nil {
			c.err = err
		}
		c.closed = true
	}
	return c.err
}

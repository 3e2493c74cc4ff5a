package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"time"
)

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

// WriteChromeTrace renders completed spans — a -trace file loaded with
// ReadTraceFile — as Chrome trace_event JSON (the "JSON Array Format"),
// loadable in chrome://tracing and Perfetto: engine stage timelines, the
// par worker fan-out and SHAP hot paths show as nested slices on one
// time axis. `gef -chrome <trace.jsonl>` is its command-line view.
//
// Mapping:
//
//   - a span becomes an X ("complete") event; a zero-wall record (a
//     Span.Event) becomes an instant event (ph "i", scope "t") on its
//     parent's lane;
//   - ts and dur are in microseconds, ts counted from the earliest
//     record;
//   - pid is always 1; tid is a lane replayed in start order from the
//     span lineage: a span takes its parent's lane while the parent is
//     the innermost open span there (and the span ends within it), and
//     otherwise opens a fresh lane named by its own id. Overlapping
//     siblings (par fan-outs, concurrent requests) so move to fresh
//     lanes, sequential descendants share their ancestor's lane, and the
//     X events on every lane nest, as the viewers require;
//   - attributes land in args.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	order := make([]*SpanData, len(spans))
	for i := range spans {
		order[i] = &spans[i]
	}
	// A parent starts before its children and has the smaller id, so
	// (Start, ID) order opens every parent first.
	slices.SortFunc(order, func(a, b *SpanData) int {
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	end := func(sp *SpanData) time.Time { return sp.Start.Add(sp.Wall) }

	lanes := make(map[uint64]uint64, len(order)) // span id → tid
	open := make(map[uint64][]*SpanData)         // tid → open spans, outermost first
	events := make([]chromeEvent, 0, len(order))
	for _, sp := range order {
		ev := chromeEvent{Name: sp.Name, Cat: "gef", PID: 1, TID: sp.ID,
			TS: float64(sp.Start.Sub(order[0].Start)) / 1e3, Args: spanArgs(sp)}
		l, parentKnown := lanes[sp.Parent]
		if sp.Wall == 0 {
			ev.Phase, ev.Scope = "i", "t"
			if parentKnown {
				ev.TID = l
			}
			events = append(events, ev)
			continue
		}
		ev.Phase, ev.Dur = "X", float64(sp.Wall)/1e3
		if parentKnown {
			stack := open[l]
			for len(stack) > 0 && !end(stack[len(stack)-1]).After(sp.Start) {
				stack = stack[:len(stack)-1]
			}
			open[l] = stack
			if n := len(stack); n > 0 && stack[n-1].ID == sp.Parent && !end(sp).After(end(stack[n-1])) {
				ev.TID = l
			}
		}
		lanes[sp.ID] = ev.TID
		open[ev.TID] = append(open[ev.TID], sp)
		events = append(events, ev)
	}

	if len(events) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	out := []byte("[")
	for i, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(append(out, '\n'), data...)
	}
	_, err := w.Write(append(out, "\n]\n"...))
	return err
}

// spanArgs flattens attributes for the viewer's slice-details pane.
func spanArgs(sp *SpanData) map[string]any {
	if len(sp.Attrs) == 0 {
		return nil
	}
	args := make(map[string]any, len(sp.Attrs))
	for _, a := range sp.Attrs {
		args[a.Key] = a.Value
	}
	return args
}

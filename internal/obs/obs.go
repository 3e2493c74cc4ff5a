// Package obs is the pipeline-wide observability layer: a lightweight
// span/trace API, a process-wide metrics registry (counters, gauges,
// fixed-bucket histograms) and runtime/pprof label integration, all
// stdlib-only.
//
// The design splits responsibilities the way the GEF pipeline needs them:
//
//   - Spans measure the *macro* structure — one span per pipeline stage
//     (feature selection, domain construction, D* generation, interaction
//     ranking, GAM fit, P-IRLS iterations). Spans carry wall time and
//     key/value attributes, and each completed span is emitted to a
//     pluggable Sink: none by default, JSON lines for -trace (the one
//     on-disk span format; WriteChromeTrace renders it for
//     chrome://tracing offline), or one text line per span for -v.
//   - Metrics count the *micro* structure — per-iteration boosting
//     timings, P-IRLS iteration counts, SHAP node visits, PD forest
//     evaluations. They are always-on atomics with negligible cost, so
//     hot paths need no enable checks.
//
// A third consumer rides on the span stream: the always-on flight
// recorder (see recorder.go), a fixed-size ring of the most recent
// completed spans, events, degradations and errors that production runs
// dump on error and the telemetry handler serves at /flight. Start
// therefore always returns a live span; its cost is one small
// allocation plus a short ring write at End, and an installed sink adds
// only its own End call. In every mode the pipeline output is
// byte-identical to an uninstrumented one.
package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// Int, F64, Str and Bool build span attributes.
func Int(k string, v int) Attr           { return Attr{Key: k, Value: v} }
func I64(k string, v int64) Attr         { return Attr{Key: k, Value: v} }
func F64(k string, v float64) Attr       { return Attr{Key: k, Value: v} }
func Str(k, v string) Attr               { return Attr{Key: k, Value: v} }
func Bool(k string, v bool) Attr         { return Attr{Key: k, Value: v} }
func Dur(k string, v time.Duration) Attr { return Attr{Key: k, Value: v.Seconds()} }

// SpanData is the immutable record of a completed span (or a zero-wall
// event) that a Sink receives at End. Allocation is not measured per
// span: use -memprofile, which attributes it to call sites.
type SpanData struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Depth  int       `json:"depth"`
	Start  time.Time `json:"start"`
	// Wall is the span duration in nanoseconds.
	Wall  time.Duration `json:"wall_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// pprofLabelKey is the label key under which CPU-profile samples are
// attributed to the innermost active span.
const pprofLabelKey = "gef_stage"

var (
	globalSink  atomic.Value // sinkBox
	pprofLabels atomic.Bool
	spanIDs     atomic.Uint64
)

// sinkBox lets atomic.Value hold differently-typed Sinks (and nil).
type sinkBox struct{ s Sink }

// SetSink installs the process-wide trace sink. Pass nil to disable
// tracing (the default).
func SetSink(s Sink) { globalSink.Store(sinkBox{s: s}) }

// CurrentSink returns the installed sink, or nil when tracing is off.
func CurrentSink() Sink {
	if b, ok := globalSink.Load().(sinkBox); ok {
		return b.s
	}
	return nil
}

// SetPprofLabels toggles per-span goroutine pprof labels: when on, CPU
// profile samples are labelled gef_stage=<innermost span name>, so
// `go tool pprof -tags` attributes time to pipeline stages.
func SetPprofLabels(on bool) { pprofLabels.Store(on) }

// ctxKey carries the parent *Span through a context.
type ctxKey struct{}

// FromContext returns the innermost active span of ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Span is one live measurement. Start never returns nil, but a nil *Span
// is still valid and inert: every method no-ops, so code holding an
// optional span needs no checks.
type Span struct {
	data      SpanData
	sink      Sink
	parentCtx context.Context // restored into pprof labels at End
	labeled   bool
	ended     bool
}

// Start begins a span named name as a child of the span in ctx (if any)
// and returns a derived context carrying the new span. At End the span
// goes to the flight recorder and to the sink that was installed when
// Start ran (if any).
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	sp := &Span{sink: CurrentSink(), parentCtx: ctx}
	sp.data.ID = spanIDs.Add(1)
	sp.data.Name = name
	if parent := FromContext(ctx); parent != nil {
		sp.data.Parent = parent.data.ID
		sp.data.Depth = parent.data.Depth + 1
	}
	if len(attrs) > 0 {
		sp.data.Attrs = append(sp.data.Attrs, attrs...)
	}
	nctx := context.WithValue(ctx, ctxKey{}, sp)
	if pprofLabels.Load() {
		nctx = pprof.WithLabels(nctx, pprof.Labels(pprofLabelKey, name))
		pprof.SetGoroutineLabels(nctx)
		sp.labeled = true
	}
	sp.data.Start = time.Now()
	return nctx, sp
}

// Set appends attributes to the span (visible to the sink at End).
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// Event emits an instantaneous child record (zero wall time) — e.g. an
// early-stopping decision — without opening a span. Events reach both
// the trace sink and the flight recorder.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := SpanData{
		ID:     spanIDs.Add(1),
		Parent: s.data.ID,
		Name:   name,
		Depth:  s.data.Depth + 1,
		Start:  time.Now(),
		Attrs:  attrs,
	}
	if s.sink != nil {
		s.sink.End(&ev)
	}
	Flight().record(FlightEvent, &ev, "")
}

// End closes the span, records its wall time, emits it to the sink and
// the flight recorder, restores the parent's pprof labels, and returns
// the wall time. Safe to call on a nil span (returns 0) and idempotent.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	s.data.Wall = time.Since(s.data.Start)
	if s.labeled {
		pprof.SetGoroutineLabels(s.parentCtx)
	}
	if s.sink != nil {
		s.sink.End(&s.data)
	}
	Flight().record(FlightSpan, &s.data, "")
	return s.data.Wall
}

// Name returns the span's name ("" on a nil span). internal/par uses it
// to label its chunk metrics with the innermost pipeline site.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.data.Name
}

// Wall returns the span's duration so far (final after End).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	if s.ended {
		return s.data.Wall
	}
	return time.Since(s.data.Start)
}

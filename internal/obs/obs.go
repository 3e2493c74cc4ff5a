// Package obs is the pipeline-wide observability layer: a lightweight
// span/trace API, a process-wide metrics registry (counters, gauges,
// fixed-bucket histograms) and runtime/pprof label integration, all
// stdlib-only.
//
// The design splits responsibilities the way the GEF pipeline needs them:
//
//   - Spans measure the *macro* structure — one span per pipeline stage
//     (feature selection, domain construction, D* generation, interaction
//     ranking, GAM fit, P-IRLS iterations). Spans carry wall time,
//     heap-allocation deltas (runtime.MemStats) and key/value attributes,
//     and are emitted to a pluggable Sink (no-op by default, human text,
//     or JSON-lines for machine analysis).
//   - Metrics count the *micro* structure — per-iteration boosting
//     timings, P-IRLS iteration counts, SHAP node visits, PD forest
//     evaluations. They are always-on atomics with negligible cost, so
//     hot paths need no enable checks.
//
// A third consumer rides on the span stream: the always-on flight
// recorder (see recorder.go), a fixed-size ring of the most recent
// completed spans, events, degradations and errors that production runs
// dump on error and the telemetry handler serves at /flight. With the
// recorder enabled (the default) Start always returns a live span; the
// per-span cost is one small allocation plus a short ring write at End
// (ReadMemStats is still skipped unless a sink is installed, so alloc
// deltas are only measured when tracing is on). When the recorder is
// disabled too, Start returns a nil *Span whose methods no-op and the
// pipeline is effectively free (one atomic load per stage). In every
// mode the pipeline output is byte-identical to an uninstrumented one.
package obs

import (
	"context"
	"runtime"
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

// SpanData is the immutable record a Sink receives. At Begin time Wall and
// the allocation deltas are still zero; End fills them in.
type SpanData struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Depth  int       `json:"depth"`
	Start  time.Time `json:"start"`
	// Wall is the span duration in nanoseconds.
	Wall time.Duration `json:"wall_ns"`
	// AllocBytes / AllocObjects are the process-wide heap-allocation
	// deltas (runtime.MemStats TotalAlloc / Mallocs) over the span. They
	// include allocations by concurrent goroutines; at the pipeline's
	// stage granularity the stage under measurement dominates.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	Attrs        []Attr `json:"attrs,omitempty"`
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

// Enabled reports whether a trace sink or pprof labels are active (the
// flight recorder keeps spans live independently of this).
func Enabled() bool { return CurrentSink() != nil || pprofLabels.Load() }

// ctxKey carries the parent *Span through a context.
type ctxKey struct{}

// FromContext returns the innermost active span of ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Span is one live measurement. A nil *Span is valid and inert: every
// method no-ops, which is how the disabled fast path works.
type Span struct {
	data         SpanData
	sink         Sink
	parentCtx    context.Context // restored into pprof labels at End
	labeled      bool
	startAllocs  uint64
	startMallocs uint64
	ended        bool
}

// Start begins a span named name as a child of the span in ctx (if any)
// and returns a derived context carrying the new span. When tracing,
// pprof labels and the flight recorder are all disabled it returns
// (ctx, nil) without allocating; with only the recorder on (the
// production default) the span is live but alloc deltas stay zero.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	sink := CurrentSink()
	labels := pprofLabels.Load()
	if sink == nil && !labels && !Flight().Enabled() {
		return ctx, nil
	}
	return start(ctx, name, sink, labels, attrs)
}

// StartAlways is Start that returns a live span even when tracing is
// disabled, for callers that report the span's wall time themselves
// (e.g. the experiments CLI). With no sink installed the span is
// measured but emitted nowhere.
func StartAlways(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return start(ctx, name, CurrentSink(), pprofLabels.Load(), attrs)
}

func start(ctx context.Context, name string, sink Sink, labels bool, attrs []Attr) (context.Context, *Span) {
	sp := &Span{sink: sink, parentCtx: ctx}
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
	if labels {
		nctx = pprof.WithLabels(nctx, pprof.Labels(pprofLabelKey, name))
		pprof.SetGoroutineLabels(nctx)
		sp.labeled = true
	}
	if sink != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sp.startAllocs, sp.startMallocs = ms.TotalAlloc, ms.Mallocs
	}
	sp.data.Start = time.Now()
	if sink != nil {
		sink.Begin(&sp.data)
	}
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
	fl := Flight()
	if s.sink == nil && !fl.Enabled() {
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
	fl.record(FlightEvent, &ev, "")
}

// End closes the span, records wall time and allocation deltas, emits it
// to the sink and the flight recorder, restores the parent's pprof
// labels, and returns the wall time. Safe to call on a nil span
// (returns 0) and idempotent.
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
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.data.AllocBytes = ms.TotalAlloc - s.startAllocs
		s.data.AllocObjects = ms.Mallocs - s.startMallocs
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

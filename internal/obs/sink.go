package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Sink receives span records. Begin fires when a span opens (Wall and
// alloc deltas still zero) so interactive sinks can show progress; End
// fires with the completed record. Implementations must be safe for
// concurrent use.
type Sink interface {
	Begin(sp *SpanData)
	End(sp *SpanData)
	Flush() error
}

// --- human-readable text sink -------------------------------------------

// TextSink writes an indented, human-readable span log — the `-v`
// progress mode of the CLIs:
//
//	-> gef.explain
//	   -> sampling.build_domains
//	   <- sampling.build_domains 1.8ms +312KB (features=5 points=320)
type TextSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error // first write error, surfaced by Flush
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// printf writes through the sink, capturing the first write error so a
// truncated trace does not pass silently; Flush reports it.
func (t *TextSink) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

func (t *TextSink) Begin(sp *SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.printf("%s-> %s\n", strings.Repeat("   ", sp.Depth), sp.Name)
}

func (t *TextSink) End(sp *SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	indent := strings.Repeat("   ", sp.Depth)
	t.printf("%s<- %s %v +%s", indent, sp.Name, sp.Wall, byteSize(sp.AllocBytes))
	if len(sp.Attrs) > 0 {
		t.printf(" (")
		for i, a := range sp.Attrs {
			if i > 0 {
				t.printf(" ")
			}
			t.printf("%s=%v", a.Key, a.Value)
		}
		t.printf(")")
	}
	t.printf("\n")
}

func (t *TextSink) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// byteSize renders a byte count compactly (B / KB / MB / GB).
func byteSize(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// --- JSON-lines sink -----------------------------------------------------

// JSONSink writes one JSON object per *completed* span (Begin is a no-op),
// in end order — children before parents, reconstructable into a tree via
// the id/parent fields. The format is the machine-analysis counterpart of
// TextSink.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	w   io.Writer
	err error // first encode error, surfaced by Flush
}

// NewJSONSink returns a JSON-lines sink writing to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w), w: w}
}

func (j *JSONSink) Begin(sp *SpanData) {}

func (j *JSONSink) End(sp *SpanData) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(sp)
}

func (j *JSONSink) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if f, ok := j.w.(interface{ Sync() error }); ok {
		return f.Sync()
	}
	return nil
}

// --- in-memory sink (tests, BenchReport) ---------------------------------

// MemorySink records completed spans in memory, in end order.
type MemorySink struct {
	mu    sync.Mutex
	spans []SpanData
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

func (m *MemorySink) Begin(sp *SpanData) {}

func (m *MemorySink) End(sp *SpanData) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spans = append(m.spans, *sp)
}

func (m *MemorySink) Flush() error { return nil }

// Spans returns a copy of the recorded spans in end order.
func (m *MemorySink) Spans() []SpanData {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SpanData(nil), m.spans...)
}

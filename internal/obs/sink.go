package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Sink receives completed span records (and zero-wall events) at End.
// Implementations must be safe for concurrent use.
type Sink interface {
	End(sp *SpanData)
	Flush() error
}

// --- human-readable text sink -------------------------------------------

// TextSink writes one line per completed span, indented by depth — the
// `-v` progress mode of the CLIs. Spans print in end order, children
// before their parent:
//
//	   sampling.build_domains 1.8ms (features=5 points=320)
//	   gam.fit 3.1ms (rows=100)
//	gef.explain 6.2ms
type TextSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error // first write error, surfaced by Flush
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

func (t *TextSink) End(sp *SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, "%s%s\n", strings.Repeat("   ", sp.Depth), spanLine(sp))
}

func (t *TextSink) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// spanLine renders a record as its name, its wall time (when nonzero)
// and its attributes. It is the one span renderer: the -v sink and
// WriteFlightText both print through it.
func spanLine(sp *SpanData) string {
	var b strings.Builder
	b.WriteString(sp.Name)
	if sp.Wall > 0 {
		fmt.Fprintf(&b, " %v", sp.Wall.Round(time.Microsecond))
	}
	for i, a := range sp.Attrs {
		if i == 0 {
			b.WriteString(" (")
		} else {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", a.Key, a.Value)
	}
	if len(sp.Attrs) > 0 {
		b.WriteByte(')')
	}
	return b.String()
}

// --- JSON-lines sink -----------------------------------------------------

// JSONSink writes one JSON object per completed span, in end order —
// children before parents, reconstructable into a tree via the id/parent
// fields. This is the -trace format; ReadTrace loads it back and
// WriteChromeTrace renders it for a trace viewer.
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

// ReadTraceFile loads a JSON-lines trace written by JSONSink (a -trace
// file), in file order. Attribute values come back as JSON decodes them
// (numbers as float64).
func ReadTraceFile(path string) ([]SpanData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var spans []SpanData
	for {
		var sp SpanData
		err := dec.Decode(&sp)
		if err == io.EOF {
			return spans, nil
		}
		if err != nil {
			return nil, fmt.Errorf("obs: parsing trace %s, record %d: %w", path, len(spans)+1, err)
		}
		spans = append(spans, sp)
	}
}

// --- in-memory sink (tests, BenchReport) ---------------------------------

// MemorySink records completed spans in memory, in end order.
type MemorySink struct {
	mu    sync.Mutex
	spans []SpanData
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

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

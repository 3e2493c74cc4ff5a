package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-size ring of the most recent observability
// records — completed spans, span events, degradations and errors — that
// is always on. Unlike the trace sinks (opt-in, unbounded output), the
// recorder costs one short critical section per record and a fixed
// memory bound of capacity × sizeof(FlightEntry) (~200 B plus attrs), so
// it has no off switch; runs dump the ring only when something goes
// wrong: the CLIs write a snapshot on any typed
// error or degradation (-flight-out), and the serving handler exposes it
// at /flight.
//
// Records carry monotonic sequence numbers assigned under the ring lock,
// so a snapshot is always gap-free and totally ordered even when many
// goroutines record concurrently.

// Flight-record kinds.
const (
	// FlightSpan is a completed span (End fired).
	FlightSpan = "span"
	// FlightEvent is an instantaneous span event (Span.Event).
	FlightEvent = "event"
	// FlightDegradation is one rung of the robust degradation ladder.
	FlightDegradation = "degradation"
	// FlightError is a typed pipeline error on its way to a caller.
	FlightError = "error"
)

// FlightEntry is one flight-recorder record. Span/event entries embed
// the completed SpanData; degradation and error entries synthesize one
// (Name = site, Attrs = details) so every entry renders uniformly.
type FlightEntry struct {
	Seq  uint64   `json:"seq"`
	Kind string   `json:"kind"`
	Span SpanData `json:"span"`
	Err  string   `json:"err,omitempty"`
}

// FlightSnapshot is a consistent copy of the recorder taken under its
// lock: Entries hold ascending, gap-free sequence numbers; Dropped
// counts records already overwritten by ring wrap-around.
type FlightSnapshot struct {
	Capacity int           `json:"capacity"`
	Recorded uint64        `json:"recorded"`
	Dropped  uint64        `json:"dropped"`
	Entries  []FlightEntry `json:"entries"`
}

// DefaultFlightCapacity bounds the default recorder: at ~200 bytes per
// entry the ring costs well under 1 MiB resident.
const DefaultFlightCapacity = 2048

// Recorder is a fixed-capacity flight-recorder ring. The zero value is
// not usable; construct with NewRecorder.
type Recorder struct {
	mu   sync.Mutex
	buf  []FlightEntry
	next uint64 // total records ever; entry i lives at buf[i%cap]
}

// NewRecorder returns a recorder holding the last capacity records
// (minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{buf: make([]FlightEntry, 0, capacity)}
}

// record stores one entry; the sequence number is assigned under the
// lock so snapshots are gap-free. sp is copied by value — SpanData is
// immutable after End, so aliasing its Attrs slice is safe.
func (r *Recorder) record(kind string, sp *SpanData, errMsg string) {
	r.mu.Lock()
	e := FlightEntry{Seq: r.next, Kind: kind, Span: *sp, Err: errMsg}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%uint64(cap(r.buf))] = e
	}
	r.next++
	r.mu.Unlock()
}

// RecordSpan stores a completed span record. Span.End calls this on the
// default recorder automatically; custom recorders can be fed manually.
func (r *Recorder) RecordSpan(sp *SpanData) { r.record(FlightSpan, sp, "") }

// RecordError stores an error record attributed to site. The entry's
// timestamp is the record time.
func (r *Recorder) RecordError(site string, err error) {
	if err == nil {
		return
	}
	sp := SpanData{Name: site, Start: time.Now()}
	r.record(FlightError, &sp, err.Error())
}

// Snapshot returns a consistent copy of the ring in ascending sequence
// order.
func (r *Recorder) Snapshot() FlightSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := FlightSnapshot{Capacity: cap(r.buf), Recorded: r.next}
	n := len(r.buf)
	if n == 0 {
		return s
	}
	s.Entries = make([]FlightEntry, 0, n)
	if r.next > uint64(n) {
		s.Dropped = r.next - uint64(n)
	}
	// Oldest entry first: the ring cell holding sequence next-n.
	start := int((r.next - uint64(n)) % uint64(cap(r.buf)))
	for i := 0; i < n; i++ {
		s.Entries = append(s.Entries, r.buf[(start+i)%cap(r.buf)])
	}
	return s
}

// --- default recorder ------------------------------------------------------

// flight is the process-wide always-on recorder. It is swapped
// atomically so tests can substitute a private ring.
var flight atomic.Pointer[Recorder]

func init() { flight.Store(NewRecorder(DefaultFlightCapacity)) }

// Flight returns the process-wide flight recorder.
func Flight() *Recorder { return flight.Load() }

// SetFlight installs r as the process-wide recorder and returns the
// previous one (for tests; pass the old one back to restore).
func SetFlight(r *Recorder) *Recorder {
	if r == nil {
		r = NewRecorder(DefaultFlightCapacity)
	}
	return flight.Swap(r)
}

// RecordDegradation records one degradation-ladder rung in the default
// recorder. internal/robust calls this from Record so every degradation
// is replayable even when no trace sink is installed.
func RecordDegradation(stage, action, detail, reason string) {
	sp := SpanData{
		Name:  "robust.degradation",
		Start: time.Now(),
		Attrs: []Attr{Str("stage", stage), Str("action", action), Str("detail", detail), Str("reason", reason)},
	}
	Flight().record(FlightDegradation, &sp, "")
}

// RecordError records a typed pipeline error at site in the default
// recorder.
func RecordError(site string, err error) { Flight().RecordError(site, err) }

// --- snapshot output -------------------------------------------------------

// WriteFlightJSON writes the snapshot as indented JSON.
func WriteFlightJSON(w io.Writer, s FlightSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DumpFlightFile writes the default recorder's snapshot to path — the
// CLIs' -flight-out / dump-on-error sink.
func DumpFlightFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating flight dump: %w", err)
	}
	werr := WriteFlightJSON(f, Flight().Snapshot())
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("obs: writing flight dump: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("obs: closing flight dump: %w", cerr)
	}
	return nil
}

// ReadFlightFile loads a snapshot written by DumpFlightFile.
func ReadFlightFile(path string) (FlightSnapshot, error) {
	var s FlightSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("obs: parsing flight dump %s: %w", path, err)
	}
	return s, nil
}

// WriteFlightText pretty-prints a snapshot for humans — the `gef
// -flight-dump` view. Entries print oldest-first with times relative to
// the first entry, one line each:
//
//	seq 041 +1.2ms    span         gam.fit 3.1ms (lambda=0.01)
//	seq 042 +4.3ms    degradation  robust.degradation (stage=gam action=drop_tensors)
func WriteFlightText(w io.Writer, s FlightSnapshot) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d entries (capacity %d, recorded %d, dropped %d)\n",
		len(s.Entries), s.Capacity, s.Recorded, s.Dropped); err != nil {
		return err
	}
	if len(s.Entries) == 0 {
		return nil
	}
	t0 := s.Entries[0].Span.Start
	for _, e := range s.Entries {
		rel := e.Span.Start.Sub(t0)
		line := fmt.Sprintf("seq %04d +%-10v %-12s %s", e.Seq, rel.Round(time.Microsecond), e.Kind, spanLine(&e.Span))
		if e.Err != "" {
			line += " err=" + e.Err
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	// A per-kind tally closes the dump so operators see the shape at a
	// glance even when the ring is full of spans.
	kinds := map[string]int{}
	for _, e := range s.Entries {
		kinds[e.Kind]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	line := "totals:"
	for _, k := range names {
		line += fmt.Sprintf(" %s=%d", k, kinds[k])
	}
	_, err := fmt.Fprintln(w, line)
	return err
}

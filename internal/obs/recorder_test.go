package obs

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// withFlight installs a private recorder for the test and restores the
// previous one afterwards.
func withFlight(t *testing.T, r *Recorder) *Recorder {
	t.Helper()
	old := SetFlight(r)
	t.Cleanup(func() { SetFlight(old) })
	return r
}

func TestRecorderRingAndSequence(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.RecordSpan(&SpanData{Name: "s", Start: time.Now()})
	}
	s := r.Snapshot()
	if s.Capacity != 16 || s.Recorded != 40 || s.Dropped != 24 {
		t.Fatalf("snapshot meta = %+v", s)
	}
	if len(s.Entries) != 16 {
		t.Fatalf("entries = %d, want 16", len(s.Entries))
	}
	for i, e := range s.Entries {
		if want := uint64(24 + i); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestSpansEventsAndErrorsReachFlight(t *testing.T) {
	SetSink(nil)
	fr := withFlight(t, NewRecorder(64))

	ctx, sp := Start(context.Background(), "stage", Int("n", 3))
	_, child := Start(ctx, "child")
	child.Event("decision", Str("why", "test"))
	child.End()
	sp.End()
	RecordDegradation("gam", "drop_tensors", "2 terms", "numerical failure")
	RecordError("engine.fit", errors.New("boom"))

	s := fr.Snapshot()
	kinds := map[string]int{}
	names := map[string]bool{}
	for _, e := range s.Entries {
		kinds[e.Kind]++
		names[e.Span.Name] = true
	}
	if kinds[FlightSpan] != 2 || kinds[FlightEvent] != 1 || kinds[FlightDegradation] != 1 || kinds[FlightError] != 1 {
		t.Fatalf("kind tally = %v", kinds)
	}
	if !names["stage"] || !names["child"] || !names["decision"] {
		t.Errorf("names recorded = %v", names)
	}
	// Sequence numbers are gap-free and ascending.
	for i := 1; i < len(s.Entries); i++ {
		if s.Entries[i].Seq != s.Entries[i-1].Seq+1 {
			t.Fatalf("sequence gap between %d and %d", s.Entries[i-1].Seq, s.Entries[i].Seq)
		}
	}
}

// TestRecorderConcurrentWriters drives concurrent recording at the
// worker counts the determinism suite sweeps (1, 2, NumCPU) and asserts
// the ring stays gap-free and internally consistent — the -race gate for
// the flight recorder.
func TestRecorderConcurrentWriters(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		r := NewRecorder(256)
		const perWorker = 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//lint:ignore rawgo test exercises concurrent recorder writers directly
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					r.RecordSpan(&SpanData{Name: "w", Attrs: []Attr{Int("worker", w), Int("i", i)}})
				}
			}(w)
		}
		// Concurrent snapshots must always be consistent mid-flight.
		for k := 0; k < 10; k++ {
			s := r.Snapshot()
			for i := 1; i < len(s.Entries); i++ {
				if s.Entries[i].Seq != s.Entries[i-1].Seq+1 {
					t.Fatalf("workers=%d: mid-flight sequence gap", workers)
				}
			}
		}
		wg.Wait()
		s := r.Snapshot()
		if want := uint64(workers * perWorker); s.Recorded != want {
			t.Fatalf("workers=%d: recorded %d, want %d", workers, s.Recorded, want)
		}
		if len(s.Entries) != 256 && uint64(len(s.Entries)) != s.Recorded {
			t.Fatalf("workers=%d: %d entries resident", workers, len(s.Entries))
		}
		for i := 1; i < len(s.Entries); i++ {
			if s.Entries[i].Seq != s.Entries[i-1].Seq+1 {
				t.Fatalf("workers=%d: final sequence gap", workers)
			}
		}
	}
}

func TestFlightDumpRoundTripAndText(t *testing.T) {
	withFlight(t, NewRecorder(32))
	_, sp := Start(context.Background(), "gam.fit", F64("lambda", 0.01))
	sp.End()
	RecordError("cli", errors.New("deadline exceeded"))

	path := filepath.Join(t.TempDir(), "flight.json")
	if err := DumpFlightFile(path); err != nil {
		t.Fatalf("DumpFlightFile: %v", err)
	}
	s, err := ReadFlightFile(path)
	if err != nil {
		t.Fatalf("ReadFlightFile: %v", err)
	}
	if len(s.Entries) != 2 || s.Entries[0].Span.Name != "gam.fit" || s.Entries[1].Err == "" {
		t.Fatalf("round-trip snapshot = %+v", s)
	}

	var buf bytes.Buffer
	if err := WriteFlightText(&buf, s); err != nil {
		t.Fatalf("WriteFlightText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"flight recorder: 2 entries", "gam.fit", "lambda=0.01", "err=deadline exceeded", "totals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}

package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// recordingSink logs the order of calls it receives into a shared log.
type recordingSink struct {
	name     string
	log      *[]string
	flushErr error
}

func (r *recordingSink) End(sp *SpanData) { *r.log = append(*r.log, r.name+".end:"+sp.Name) }
func (r *recordingSink) Flush() error {
	*r.log = append(*r.log, r.name+".flush")
	return r.flushErr
}

func TestSinkTeeOrdering(t *testing.T) {
	var log []string
	a := &recordingSink{name: "a", log: &log}
	b := &recordingSink{name: "b", log: &log}
	tee := NewSinkTee(a, nil, b)
	sp := SpanData{Name: "s"}
	tee.End(&sp)
	if err := tee.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := []string{"a.end:s", "b.end:s", "a.flush", "b.flush"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("call order = %v, want %v", log, want)
	}
}

// TestMultiSinkFansOut installs a tee as the process sink and checks that
// live spans reach every sink behind it.
func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	withSink(t, NewSinkTee(a, nil, b))
	_, sp := Start(context.Background(), "fan")
	sp.End()
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("fan-out missed a sink: %d, %d", len(a.Spans()), len(b.Spans()))
	}
}

func TestSinkTeeFlushJoinsAllErrors(t *testing.T) {
	var log []string
	e1, e2 := errors.New("stderr closed"), errors.New("jsonl disk full")
	a := &recordingSink{name: "a", log: &log, flushErr: e1}
	b := &recordingSink{name: "b", log: &log} // healthy sink between the failures
	c := &recordingSink{name: "c", log: &log, flushErr: e2}
	tee := NewSinkTee(a, b, c)
	err := tee.Flush()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Errorf("joined error %v should carry both failures", err)
	}
	// Every sink was flushed despite the first failure.
	want := []string{"a.flush", "b.flush", "c.flush"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("flush order = %v, want %v", log, want)
	}
}

func TestSinkTeeDegenerateForms(t *testing.T) {
	if NewSinkTee() != nil || NewSinkTee(nil, nil) != nil {
		t.Error("tee of zero live sinks should be nil")
	}
	var log []string
	a := &recordingSink{name: "a", log: &log}
	if NewSinkTee(nil, a) != Sink(a) {
		t.Error("tee of one live sink should unwrap")
	}
}

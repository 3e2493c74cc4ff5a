package obs

import "errors"

// SinkTee fans every span record out to several sinks in declaration
// order — the composition the CLIs use when -v text progress, a -trace
// file and a -trace-format=chrome export all run in one process, and
// the one gef.CombineTraceSinks returns. Flush flushes every sink and
// reports *all* failures, joined with errors.Join, not only the first
// (a truncated Chrome export should not be masked by an earlier
// text-sink error).
type SinkTee struct {
	sinks []Sink
}

// NewSinkTee combines sinks, dropping nil entries. Zero live sinks
// return nil (tracing off); a single live sink is returned unwrapped.
func NewSinkTee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &SinkTee{sinks: live}
}

// Begin forwards to every sink in declaration order.
func (t *SinkTee) Begin(sp *SpanData) {
	for _, s := range t.sinks {
		s.Begin(sp)
	}
}

// End forwards to every sink in declaration order.
func (t *SinkTee) End(sp *SpanData) {
	for _, s := range t.sinks {
		s.End(sp)
	}
}

// Flush flushes every sink and joins the failures (errors.Join; nil when
// all succeed). Every sink is flushed even after an earlier failure.
func (t *SinkTee) Flush() error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

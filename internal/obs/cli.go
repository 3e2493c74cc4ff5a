package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLI bundles the observability flags shared by the gef, forestgen and
// experiments commands:
//
//	-trace <file|->     JSON-lines span trace (stdout with "-")
//	-v                  one human-readable line per span on stderr
//	-metrics-out <f>    BENCH-shaped metrics snapshot written on exit
//	-flight-out <f>     flight-recorder snapshot written on exit
//	-obs-listen <addr>  serve /metrics, /healthz and /flight while running
//	-cpuprofile <f>     CPU profile with per-stage pprof labels
//	-memprofile <f>     heap profile written on exit
//
// Typical use:
//
//	var ocli obs.CLI
//	ocli.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	stop, err := ocli.Start("gef")
//	if err != nil { ... }
//	defer stop()
//
// On a typed pipeline error or a degraded explanation the commands also
// call DumpFlight to persist the flight recorder even when -flight-out
// was not given (dump-on-error).
type CLI struct {
	Trace      string
	MetricsOut string
	FlightOut  string
	ObsListen  string
	CPUProfile string
	MemProfile string
	Verbose    bool
}

// RegisterFlags declares the shared observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Trace, "trace", "", "write a JSON-lines span trace to this file ('-' for stdout)")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot (BENCH shape) to this file on exit")
	fs.StringVar(&c.FlightOut, "flight-out", "", "write a flight-recorder snapshot (JSON) to this file on exit; errors and degradations dump here automatically")
	fs.StringVar(&c.ObsListen, "obs-listen", "", "serve /metrics (Prometheus), /healthz and /flight on this address while running (e.g. localhost:9090)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile (stages labelled "+pprofLabelKey+") to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.BoolVar(&c.Verbose, "v", false, "print one human-readable line per completed span to stderr")
}

// DumpFlight writes the flight recorder to -flight-out, or to
// <name>-flight.json when the flag was not given, and returns the path.
// The commands call it on typed errors and degraded explanations so a
// post-mortem ring is always on disk after a failed run.
func (c *CLI) DumpFlight(name string) (string, error) {
	path := c.FlightOut
	if path == "" {
		path = name + "-flight.json"
	}
	if err := DumpFlightFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// Start activates everything the parsed flags request and returns the
// cleanup function, which flushes sinks, stops profiles and servers, and
// writes the metrics and flight snapshots. name labels the metrics
// report and the default flight-dump filename.
func (c *CLI) Start(name string) (stop func(), err error) {
	var sinks []Sink
	var closers []io.Closer

	cleanupOnErr := func() {
		for _, cl := range closers {
			//lint:ignore errdrop error-path cleanup; the primary error is already being returned
			cl.Close()
		}
	}

	if c.Trace != "" {
		w := io.Writer(os.Stdout)
		if c.Trace != "-" {
			f, err := os.Create(c.Trace)
			if err != nil {
				return nil, fmt.Errorf("obs: creating trace file: %w", err)
			}
			closers = append(closers, f)
			w = f
		}
		sinks = append(sinks, NewJSONSink(w))
	}
	if c.Verbose {
		sinks = append(sinks, NewTextSink(os.Stderr))
	}
	SetSink(NewSinkTee(sinks...))

	stopServe := func() {}
	if c.ObsListen != "" {
		bound, stopSrv, err := Serve(c.ObsListen)
		if err != nil {
			cleanupOnErr()
			SetSink(nil)
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s (/metrics /healthz /flight)\n", bound)
		stopServe = stopSrv
	}

	var cpuFile *os.File
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			cleanupOnErr()
			stopServe()
			SetSink(nil)
			return nil, fmt.Errorf("obs: creating cpu profile: %w", err)
		}
		closers = append(closers, cpuFile)
		SetPprofLabels(true)
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cleanupOnErr()
			stopServe()
			SetSink(nil)
			return nil, fmt.Errorf("obs: starting cpu profile: %w", err)
		}
	} else {
		SetPprofLabels(false)
	}

	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
		}
		if s := CurrentSink(); s != nil {
			if err := s.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "obs: flushing trace sink: %v\n", err)
			}
		}
		SetSink(nil)
		stopServe()
		if c.MetricsOut != "" {
			if err := WriteBenchReport(c.MetricsOut, name); err != nil {
				fmt.Fprintf(os.Stderr, "obs: writing metrics: %v\n", err)
			}
		}
		if c.FlightOut != "" {
			if err := DumpFlightFile(c.FlightOut); err != nil {
				fmt.Fprintf(os.Stderr, "obs: writing flight snapshot: %v\n", err)
			}
		}
		if c.MemProfile != "" {
			if f, err := os.Create(c.MemProfile); err != nil {
				fmt.Fprintf(os.Stderr, "obs: creating mem profile: %v\n", err)
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "obs: writing mem profile: %v\n", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "obs: closing mem profile: %v\n", err)
				}
			}
		}
		for _, cl := range closers {
			if err := cl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "obs: closing output: %v\n", err)
			}
		}
	}, nil
}

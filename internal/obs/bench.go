package obs

import (
	"encoding/json"
	"os"
	"runtime"
)

// BenchReport is the -metrics-out shape: a named, environment-stamped
// metrics snapshot that successive runs can diff per stage.
//
//   - "name" identifies the producing program (e.g. "gef")
//   - "metrics" is a full Registry snapshot — counters, gauges and
//     histogram summaries with fixed-bucket percentiles
//
// No timestamp is embedded so reruns with identical behaviour produce
// identical counter sections (timings naturally vary).
type BenchReport struct {
	Name    string   `json:"name"`
	Go      string   `json:"go"`
	OS      string   `json:"os"`
	Arch    string   `json:"arch"`
	Metrics Snapshot `json:"metrics"`
}

// NewBenchReport captures the default registry into a report named name.
func NewBenchReport(name string) BenchReport {
	return BenchReport{
		Name:    name,
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		Metrics: Metrics().Snapshot(),
	}
}

// WriteBenchReport writes NewBenchReport(name) to path as indented JSON.
func WriteBenchReport(path, name string) error {
	data, err := json.MarshalIndent(NewBenchReport(name), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

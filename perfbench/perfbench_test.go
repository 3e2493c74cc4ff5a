package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// TestPlanDeterministic pins the request sequence to the seed: the same
// seed gives a byte-identical sequence, another seed a different one.
func TestPlanDeterministic(t *testing.T) {
	for name := range workloads {
		enc := func(seed int64) []byte {
			b, err := json.Marshal(plan(name, seed, fullSizes, 600))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if !bytes.Equal(enc(7), enc(7)) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(enc(7), enc(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny sizes, untraced and traced: every
// op passes its correctness checks, and the metrics printed are exactly
// the ones BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(trace bool) map[string]string {
		m := map[string]string{}
		list := spec.EndToEnd
		if trace {
			list = spec.PerLayer
		}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, dur: 300 * time.Millisecond, trace: trace,
				out: t.TempDir(), sz: tinySizes}
			res, err := bench(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			exp := want(trace)
			var missing, extra []string
			for name, unit := range exp {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					missing = append(missing, name+" ["+unit+"]")
				}
			}
			for name := range res.Metrics {
				if _, ok := exp[name]; !ok {
					extra = append(extra, name)
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing)+len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics missing or with another unit %v, undeclared %v", w.Name, trace, missing, extra)
			}
		}
	}
}

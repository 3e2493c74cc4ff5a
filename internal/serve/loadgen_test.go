package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"p99 of 100 is the 99th value, not the max", seq(100), 0.99, 99},
		{"p50 of 10 is the 5th value", seq(10), 0.50, 5},
		{"p90 of 10 is the 9th value", seq(10), 0.90, 9},
		{"p50 of 1", []float64{7}, 0.50, 7},
		{"p99 of 1", []float64{7}, 0.99, 7},
		{"q=0 is the min", seq(10), 0, 1},
		{"q=1 is the max", seq(10), 1, 10},
		{"empty", nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("%s: percentile(n=%d, %v) = %v, want %v", c.name, len(c.xs), c.q, got, c.want)
		}
	}
}

// TestLoadReportRateIsMeasured pins the report's rate to the measured
// run, not the configured duration: clients finish requests after the
// deadline, and a cancelled ctx ends the run early.
func TestLoadReportRateIsMeasured(t *testing.T) {
	results := []clientResult{
		{status: map[int]int64{200: 30}, cancels: 2},
		{status: map[int]int64{200: 15, 400: 1}, errs: 2},
	}
	rep := buildReport(LoadConfig{Clients: 2, Duration: 5 * time.Second}, results,
		2500*time.Millisecond, &Stats{}, &Stats{})
	if rep.Requests != 50 || rep.DurationS != 2.5 || rep.ReqPerSec != 20 {
		t.Fatalf("report: %d requests in %vs at %v req/s, want 50 in 2.5s at 20", rep.Requests, rep.DurationS, rep.ReqPerSec)
	}

	_, ts, fp := newTestServer(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	cfg := LoadConfig{
		BaseURL: ts.URL, Clients: 2, Duration: time.Minute,
		Fingerprints: []string{fp}, NumFeatures: 5, NumSamples: 300, DupFrac: 1, Seed: 1,
	}
	rep, err := RunLoad(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DurationS <= 0 || rep.DurationS >= cfg.Duration.Seconds() {
		t.Fatalf("run cancelled after 300ms reports %vs (configured %v)", rep.DurationS, cfg.Duration)
	}
	if rep.ClientErrors != 0 {
		t.Fatalf("run stopped by its caller reports %d client errors: requests in flight at cancellation are not errors", rep.ClientErrors)
	}
	if want := float64(rep.Requests) / rep.DurationS; rep.ReqPerSec != want {
		t.Fatalf("ReqPerSec %v, want Requests/DurationS = %d/%v = %v", rep.ReqPerSec, rep.Requests, rep.DurationS, want)
	}
}

// TestLoadDuplicateMixCoalesces drives the serving pipeline — admission
// → coalescing → engine — under a duplicate-heavy closed loop at 120
// clients, in-process so it measures server work rather than container
// networking. Each explain rotates across three families, so the hot set
// is 2 configs × 3 families = 6 keys: coalescing must still engage on
// within-family duplicates (that it never merges across families is
// TestRequestKeyDistinctPerFamily's job).
func TestLoadDuplicateMixCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("3s load run")
	}
	// The queue holds the whole closed-loop fleet: nothing should bounce
	// off admission.
	s := New(Options{MaxQueue: 4096, Budget: 30 * time.Second, FlightDir: t.TempDir()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	fps, dim, err := SeedForests(ctx, ts.URL, 2, 600, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoadConfig{
		BaseURL:      ts.URL,
		Clients:      120,
		Duration:     3 * time.Second,
		Fingerprints: fps,
		NumFeatures:  dim,
		Tenants:      4,
		DupFrac:      0.9,
		ShapFrac:     0.04,
		BadFrac:      0.01,
		UnknownFrac:  0.01,
		CancelFrac:   0.02,
		Families:     []string{"gam", "rules", "smoother"},
		Seed:         41,
	}
	rep, err := RunLoad(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reqs in %.1fs (%.0f req/s), p50 %.1fms p99 %.1fms, coalesce %.2f engine %.2f",
		rep.Requests, rep.DurationS, rep.ReqPerSec, rep.P50Ms, rep.P99Ms, rep.CoalesceHitRate, rep.EngineHitRate)
	if rep.Requests == 0 {
		t.Fatal("load run completed zero requests")
	}
	if rep.CoalesceHitRate <= 0 {
		t.Fatalf("coalesce hit rate %.3f under a %.0f%% duplicate mix (families %v) at %d clients; single-flight is not engaging",
			rep.CoalesceHitRate, cfg.DupFrac*100, cfg.Families, cfg.Clients)
	}
	if rep.Status["200"] == 0 {
		t.Fatalf("no successful requests in the mix: %+v", rep.Status)
	}
}

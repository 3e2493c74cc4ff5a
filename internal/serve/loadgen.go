package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
	"gef/internal/par"
)

// LoadConfig drives RunLoad, the closed-loop load generator behind
// cmd/gefd/loadgen. Closed-loop means each
// client issues its next request only after the previous one finishes,
// so offered load adapts to server capacity instead of stampeding it —
// the right shape for measuring a server that sheds.
type LoadConfig struct {
	// BaseURL is the gefd root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// Fingerprints are the registered forests to spread requests over.
	Fingerprints []string
	// NumFeatures sizes SHAP x vectors (must match the forests).
	NumFeatures int
	// Tenants is how many distinct X-Tenant identities to rotate
	// through (default 1).
	Tenants int
	// DupFrac is the fraction of explain requests drawn from a small
	// hot set of configs (coalescing + engine-cache exercise); the
	// rest get a unique per-request config seed.
	DupFrac float64
	// ShapFrac is the fraction of requests that hit /v1/shap.
	ShapFrac float64
	// BadFrac is the fraction of requests sent with an invalid config
	// (expected 400).
	BadFrac float64
	// UnknownFrac is the fraction sent with an unregistered
	// fingerprint (expected 404).
	UnknownFrac float64
	// CancelFrac is the fraction issued with a ~1ms client-side
	// timeout, exercising waiter cancellation under coalescing.
	CancelFrac float64
	// BudgetMS is the per-request budget_ms (0 = server default).
	BudgetMS int
	// NumSamples overrides the explain config's |D*| (0 = 2000; small
	// keeps closed-loop latency benchable).
	NumSamples int
	// Families rotates explain requests across explainer families
	// (e.g. ["gam", "rules", "smoother"]). Empty means every request
	// uses the server default family. Hot-set requests cycle families
	// deterministically, so duplicates within one family still coalesce
	// while distinct families never share a key.
	Families []string
	// Seed makes the request mix reproducible.
	Seed int64
}

// LoadReport is RunLoad's result, loadgen's JSON report.
type LoadReport struct {
	Clients int `json:"clients"`
	// DurationS is the measured run, from the first client's dispatch
	// until the last client returns; ReqPerSec = Requests / DurationS.
	DurationS     float64          `json:"duration_s"`
	Requests      int64            `json:"requests"`
	ReqPerSec     float64          `json:"req_per_sec"`
	P50Ms         float64          `json:"p50_ms"`
	P90Ms         float64          `json:"p90_ms"`
	P99Ms         float64          `json:"p99_ms"`
	MaxMs         float64          `json:"max_ms"`
	Status        map[string]int64 `json:"status"`
	ClientCancels int64            `json:"client_cancels"`
	ClientErrors  int64            `json:"client_errors"`
	// CoalesceHitRate = coalesced waiters / (waiters + leaders) over
	// the run, from /v1/stats deltas.
	CoalesceHitRate float64 `json:"coalesce_hit_rate"`
	// EngineHitRate = engine artifact-cache hits / lookups over the
	// run, from /v1/stats deltas.
	EngineHitRate float64 `json:"engine_hit_rate"`
	Shed          int64   `json:"shed"`
}

// clientResult is one closed-loop client's tally; merged after the run.
type clientResult struct {
	latencies []float64 // ms, successful HTTP round-trips
	status    map[int]int64
	cancels   int64
	errs      int64
}

// fetchStats reads /v1/stats.
func fetchStats(ctx context.Context, hc *http.Client, baseURL string) (*Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop read-side close; the decode error is the signal
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("loadgen: decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// RunLoad drives the configured mix against a running gefd and reports
// aggregate latency/throughput plus cache and coalescing hit rates
// computed from /v1/stats deltas.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.NumSamples <= 0 {
		cfg.NumSamples = 2000
	}
	if len(cfg.Fingerprints) == 0 {
		return nil, errors.New("loadgen: no forest fingerprints to target")
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}}
	defer hc.CloseIdleConnections()

	before, err := fetchStats(ctx, hc, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: server not reachable: %w", err)
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		// Closed-loop HTTP clients are IO-bound waiters, not CPU work:
		// par's worker tokens model compute parallelism and would
		// serialize the offered load on small hosts, defeating the
		// point of a load generator.
		//lint:ignore rawgo IO-bound closed-loop clients; bounded by cfg.Clients and joined via WaitGroup
		go func(i int) {
			defer wg.Done()
			results[i] = runClient(ctx, hc, cfg, i, deadline)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// The post-run stats read must succeed even when the driving ctx was
	// cancelled mid-run, or a partial run could never produce a report.
	//lint:ignore ctxdrop report collection must outlive the run's ctx on purpose
	after, err := fetchStats(context.Background(), hc, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: reading post-run stats: %w", err)
	}

	return buildReport(cfg, results, elapsed, before, after), nil
}

// runClient is one closed-loop client: issue, wait, tally, repeat.
func runClient(ctx context.Context, hc *http.Client, cfg LoadConfig, id int, deadline time.Time) clientResult {
	rng := rand.New(rand.NewSource(par.SplitSeed(cfg.Seed, id)))
	res := clientResult{status: make(map[int]int64)}
	tenant := "tenant-" + strconv.Itoa(id%cfg.Tenants)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		kind, body, cancelMS := nextRequest(cfg, rng, id)
		start := time.Now()
		status, err := postJSON(ctx, hc, cfg.BaseURL+"/v1/"+kind, tenant, body, cancelMS)
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		switch {
		case err != nil && ctx.Err() != nil:
			// The run's own caller stopped it mid-request. That is not a
			// client error, and the request never completed, so it is
			// left out of every tally, latencies included.
		case err != nil && cancelMS > 0:
			res.cancels++
		case err != nil:
			res.errs++
		default:
			res.status[status]++
			res.latencies = append(res.latencies, elapsed)
		}
	}
	return res
}

// nextRequest draws one request from the configured mix. The unique
// (non-duplicate) explains vary Config.Seed — a config-key field — so
// they can never coalesce with each other; the hot set reuses one of
// two fixed configs, so concurrent clients coalesce and sequential
// repeats hit the engine cache.
func nextRequest(cfg LoadConfig, rng *rand.Rand, id int) (kind string, body any, cancelMS int) {
	fp := cfg.Fingerprints[rng.Intn(len(cfg.Fingerprints))]
	roll := rng.Float64()
	bad := roll < cfg.BadFrac
	roll -= cfg.BadFrac
	unknown := !bad && roll >= 0 && roll < cfg.UnknownFrac
	roll -= cfg.UnknownFrac
	isShap := !bad && !unknown && roll >= 0 && roll < cfg.ShapFrac

	if rng.Float64() < cfg.CancelFrac {
		cancelMS = 1
	}
	if unknown {
		fp = "fp-unknown-0000000000000000"
	}
	if isShap {
		x := make([]float64, cfg.NumFeatures)
		for j := range x {
			x[j] = rng.Float64()
		}
		return "shap", shapRequest{Fingerprint: fp, X: x, BudgetMS: cfg.BudgetMS}, cancelMS
	}
	c := core.Config{NumUnivariate: 3, NumSamples: cfg.NumSamples, Seed: 7}
	if len(cfg.Families) > 0 {
		c.Family = cfg.Families[rng.Intn(len(cfg.Families))]
	}
	switch {
	case bad:
		c.NumSamples = -1
	case rng.Float64() < cfg.DupFrac:
		// Hot set: two configs (per family, when a mix is set), so
		// coalescing and the engine cache see sustained duplicates
		// without collapsing to a single key.
		if rng.Intn(2) == 1 {
			c.NumUnivariate = 2
		}
	default:
		// Unique work: a per-request config seed defeats both caches.
		c.Seed = int64(id)<<32 + int64(rng.Intn(1<<30)) + 100
	}
	return "explain", explainRequest{Fingerprint: fp, Config: c, BudgetMS: cfg.BudgetMS}, cancelMS
}

// postJSON issues one POST, returning the HTTP status. cancelMS > 0
// bounds the request with a tight client-side timeout to exercise
// waiter cancellation.
func postJSON(ctx context.Context, hc *http.Client, url, tenant string, body any, cancelMS int) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	if cancelMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(cancelMS)*time.Millisecond)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tenantHeader, tenant)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	// Drain so the transport can reuse the connection.
	//lint:ignore errdrop best-effort drain; the status code is the signal
	_, _ = io.Copy(io.Discard, resp.Body)
	//lint:ignore errdrop read-side close after a full drain
	resp.Body.Close()
	return resp.StatusCode, nil
}

// buildReport merges per-client tallies over the measured run with
// server-side stat deltas.
func buildReport(cfg LoadConfig, results []clientResult, elapsed time.Duration, before, after *Stats) *LoadReport {
	rep := &LoadReport{
		Clients:   cfg.Clients,
		DurationS: elapsed.Seconds(),
		Status:    make(map[string]int64),
	}
	var all []float64
	for _, r := range results {
		all = append(all, r.latencies...)
		rep.ClientCancels += r.cancels
		rep.ClientErrors += r.errs
		for code, n := range r.status {
			rep.Status[strconv.Itoa(code)] += n
			rep.Requests += n
		}
	}
	rep.Requests += rep.ClientCancels + rep.ClientErrors
	if rep.DurationS > 0 {
		rep.ReqPerSec = float64(rep.Requests) / rep.DurationS
	}
	sort.Float64s(all)
	rep.P50Ms = percentile(all, 0.50)
	rep.P90Ms = percentile(all, 0.90)
	rep.P99Ms = percentile(all, 0.99)
	if n := len(all); n > 0 {
		rep.MaxMs = all[n-1]
	}
	hits := after.CoalesceHits - before.CoalesceHits
	leads := after.CoalesceLeads - before.CoalesceLeads
	if hits+leads > 0 {
		rep.CoalesceHitRate = float64(hits) / float64(hits+leads)
	}
	eh := after.Engine.Hits - before.Engine.Hits
	em := after.Engine.Misses - before.Engine.Misses
	if eh+em > 0 {
		rep.EngineHitRate = float64(eh) / float64(eh+em)
	}
	rep.Shed = after.Shed - before.Shed
	return rep
}

// SeedForests trains n small distinct g′ forests and registers them
// with a running gefd, returning their fingerprints. It gives loadgen
// and the smoke gate self-contained targets without shipping model
// files around.
func SeedForests(ctx context.Context, baseURL string, n, rows int, seed int64) ([]string, int, error) {
	if n <= 0 {
		n = 1
	}
	if rows <= 0 {
		rows = 600
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	fps := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ds := dataset.GPrime(rows, 0.05, par.SplitSeed(seed, i))
		f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 20, NumLeaves: 15, Seed: par.SplitSeed(seed, i)})
		if err != nil {
			return nil, 0, fmt.Errorf("loadgen: training seed forest %d: %w", i, err)
		}
		blob, err := forest.Marshal(f)
		if err != nil {
			return nil, 0, fmt.Errorf("loadgen: encoding seed forest %d: %w", i, err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/forests", bytes.NewReader(blob))
		if err != nil {
			return nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return nil, 0, fmt.Errorf("loadgen: registering seed forest %d: %w", i, err)
		}
		var info forestInfo
		derr := json.NewDecoder(resp.Body).Decode(&info)
		//lint:ignore errdrop read-side close; derr carries the outcome
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("loadgen: registering seed forest %d: status %d (%v)", i, resp.StatusCode, derr)
		}
		fps = append(fps, info.Fingerprint)
	}
	return fps, dataset.GPrimeDim, nil
}

// percentile reads the q-quantile from sorted xs by nearest rank: the
// smallest value with at least q·n values at or below it, i.e. index
// ceil(q·n)−1.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

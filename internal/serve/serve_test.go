package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
)

// testForest trains a small g′ forest: real enough that every pipeline
// stage does work, small enough to keep handler tests fast.
func testForest(t *testing.T) *forest.Forest {
	t.Helper()
	ds := dataset.GPrime(300, 0.1, 7)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 10, NumLeaves: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fastConfig is a quick explain configuration for endpoint tests.
func fastConfig() core.Config {
	return core.Config{NumUnivariate: 3, NumSamples: 500, Seed: 3}
}

// newTestServer stands up a Server with one registered forest behind an
// httptest listener.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server, string) {
	t.Helper()
	if opt.FlightDir == "" {
		opt.FlightDir = t.TempDir()
	}
	s := New(opt)
	fp, err := s.RegisterForest(testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, fp
}

// doJSON posts body as JSON and returns the response with its payload.
func doJSON(t *testing.T, method, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func TestExplainEndpoint(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "acme",
		explainRequest{Fingerprint: fp, Config: fastConfig()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var out explainResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint != fp {
		t.Fatalf("fingerprint = %q, want %q", out.Fingerprint, fp)
	}
	ex, err := core.Unmarshal(out.Explanation)
	if err != nil {
		t.Fatalf("explanation blob does not round-trip: %v", err)
	}
	if len(ex.Features) == 0 {
		t.Fatal("explanation has no univariate components")
	}
}

// TestWarmGAMExplainIsFitHit: a repeated gam explain is served from the
// engine's fit-stage cache — /v1/stats moves fit hits by exactly one and
// fit misses by zero — and returns a byte-identical explanation blob,
// with and without credible intervals.
func TestWarmGAMExplainIsFitHit(t *testing.T) {
	for _, ci := range []bool{false, true} {
		t.Run(fmt.Sprintf("include_ci=%v", ci), func(t *testing.T) {
			_, ts, fp := newTestServer(t, Options{})
			req := explainRequest{Fingerprint: fp, Config: fastConfig(), IncludeCI: ci}
			explain := func() json.RawMessage {
				resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("explain: status %d, body %s", resp.StatusCode, payload)
				}
				var out explainResponse
				if err := json.Unmarshal(payload, &out); err != nil {
					t.Fatal(err)
				}
				return out.Explanation
			}
			fitStats := func() core.StageCacheStats {
				resp, payload := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("stats: status %d, body %s", resp.StatusCode, payload)
				}
				var st Stats
				if err := json.Unmarshal(payload, &st); err != nil {
					t.Fatal(err)
				}
				return st.Engine.Stages["fit"]
			}
			cold := explain()
			before := fitStats()
			warm := explain()
			after := fitStats()
			if !bytes.Equal(cold, warm) {
				t.Error("warm explanation blob differs from the cold one")
			}
			if after.Hits-before.Hits != 1 || after.Misses != before.Misses {
				t.Errorf("warm explain moved fit stats %+v → %+v, want +1 hit and no miss", before, after)
			}
		})
	}
}

func TestExplainUnknownForest(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "",
		explainRequest{Fingerprint: "fp-missing", Config: fastConfig()})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (body %s)", resp.StatusCode, payload)
	}
	var eb errorBody
	if err := json.Unmarshal(payload, &eb); err != nil || eb.Kind != "not_found" {
		t.Fatalf("error body = %s (err %v), want kind not_found", payload, err)
	}
}

func TestExplainBadConfig(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	cfg := fastConfig()
	cfg.NumSamples = -1
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "",
		explainRequest{Fingerprint: fp, Config: cfg})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, payload)
	}
	var eb errorBody
	if err := json.Unmarshal(payload, &eb); err != nil || eb.Kind != "config" {
		t.Fatalf("error body = %s, want kind config", payload)
	}
}

// TestExplainUnknownFamily checks the typed 400 contract for a family
// name the registry does not know: kind "config", message naming the
// offending family, and no computation admitted.
func TestExplainUnknownFamily(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	cfg := fastConfig()
	cfg.Family = "nope"
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "",
		explainRequest{Fingerprint: fp, Config: cfg})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, payload)
	}
	var eb errorBody
	if err := json.Unmarshal(payload, &eb); err != nil || eb.Kind != "config" {
		t.Fatalf("error body = %s, want kind config", payload)
	}
	if !strings.Contains(eb.Error, "nope") {
		t.Fatalf("error message %q does not name the unknown family", eb.Error)
	}
}

// TestExplainFamilyRules drives a non-GAM family end to end through the
// server: 200, family tag on the deserialized explanation, and the
// per-tenant family ledger records it.
func TestExplainFamilyRules(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{})
	cfg := fastConfig()
	cfg.Family = core.FamilyRules
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "acme",
		explainRequest{Fingerprint: fp, Config: cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var out explainResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	ex, err := core.Unmarshal(out.Explanation)
	if err != nil {
		t.Fatalf("rules explanation does not round-trip: %v", err)
	}
	if ex.Family != core.FamilyRules {
		t.Fatalf("family = %q, want %q", ex.Family, core.FamilyRules)
	}
	st := s.Stats()
	if n := st.Tenants["acme"].Families[core.FamilyRules]; n != 1 {
		t.Fatalf("tenant family ledger = %v, want rules:1", st.Tenants["acme"].Families)
	}
	if n := st.Families[core.FamilyRules]; n != 1 {
		t.Fatalf("aggregate family ledger = %v, want rules:1", st.Families)
	}
}

func TestExplainMalformedBody(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestAutoExplainEndpoint(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/autoexplain", "acme",
		autoRequest{Fingerprint: fp, Auto: core.AutoConfig{Base: fastConfig(), MaxUnivariate: 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var out explainResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) == 0 {
		t.Fatal("autoexplain returned no search steps")
	}
	if _, err := core.Unmarshal(out.Explanation); err != nil {
		t.Fatal(err)
	}
}

func TestShapEndpoint(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{})
	x := []float64{0.1, 0.5, 0.9, 0.3, 0.7}
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/shap", "acme",
		shapRequest{Fingerprint: fp, X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var out shapResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Phi) != len(x) {
		t.Fatalf("len(phi) = %d, want %d", len(out.Phi), len(x))
	}
	// Local accuracy: base + Σφ must reconstruct the forest prediction.
	f, err := s.forestFor(fp)
	if err != nil {
		t.Fatal(err)
	}
	sum := out.Base
	for _, p := range out.Phi {
		sum += p
	}
	if want := f.Predict(x); math.Abs(sum-want) > 1e-9 {
		t.Fatalf("base+Σφ = %g, forest predicts %g", sum, want)
	}
}

func TestShapWrongFeatureCount(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/shap", "",
		shapRequest{Fingerprint: fp, X: []float64{1, 2}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, payload)
	}
}

func TestForestRegistryLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	blob, err := forest.Marshal(testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/forests", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var info forestInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Fingerprint == "" {
		t.Fatalf("register: status %d, info %+v", resp.StatusCode, info)
	}

	listResp, listPayload := doJSON(t, http.MethodGet, ts.URL+"/v1/forests", "", nil)
	if listResp.StatusCode != http.StatusOK || !bytes.Contains(listPayload, []byte(info.Fingerprint)) {
		t.Fatalf("list: status %d, body %s", listResp.StatusCode, listPayload)
	}

	delResp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/forests/"+info.Fingerprint, "", nil)
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	delAgain, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/forests/"+info.Fingerprint, "", nil)
	if delAgain.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", delAgain.StatusCode)
	}
	exResp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "",
		explainRequest{Fingerprint: info.Fingerprint, Config: fastConfig()})
	if exResp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain after delete: status %d, want 404", exResp.StatusCode)
	}
}

func TestForestPostRejectsGarbage(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/forests", "application/json", strings.NewReader(`{"version":1,"forest":{"trees":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestTenantAccounting checks the per-tenant ledgers: requests land
// under the caller's X-Tenant, engine cache hits/misses are charged to
// the leading tenant, and a second tenant re-running the same config
// sees engine hits for work the first tenant warmed.
func TestTenantAccounting(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{})
	req := explainRequest{Fingerprint: fp, Config: fastConfig()}
	if resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "alpha", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha explain: %d %s", resp.StatusCode, payload)
	}
	if resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "beta", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta explain: %d %s", resp.StatusCode, payload)
	}
	st := s.Stats()
	alpha, beta := st.Tenants["alpha"], st.Tenants["beta"]
	if alpha.Requests != 1 || beta.Requests != 1 {
		t.Fatalf("requests: alpha %d beta %d, want 1 and 1", alpha.Requests, beta.Requests)
	}
	if alpha.EngineMisses == 0 {
		t.Fatalf("alpha (cold) engine misses = 0, want > 0: %+v", alpha)
	}
	if beta.EngineHits == 0 {
		t.Fatalf("beta (warm, same config) engine hits = 0, want > 0: %+v", beta)
	}
	if st.Requests != alpha.Requests+beta.Requests {
		t.Fatalf("total requests %d ≠ sum of tenants", st.Requests)
	}
}

// TestTenantOverflowFoldsIntoOther bounds the accounting map.
func TestTenantOverflowFoldsIntoOther(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{MaxTenants: 2})
	for i := 0; i < 4; i++ {
		doJSON(t, http.MethodPost, ts.URL+"/v1/shap", fmt.Sprintf("t%d", i),
			shapRequest{Fingerprint: fp, X: []float64{0, 0, 0, 0, 0}})
	}
	st := s.Stats()
	if len(st.Tenants) > 3 { // 2 named + "other"
		t.Fatalf("tenant map grew to %d entries despite MaxTenants=2: %v", len(st.Tenants), st.Tenants)
	}
	if st.Tenants[otherTenant].Requests == 0 {
		t.Fatalf("overflow tenants not folded into %q: %v", otherTenant, st.Tenants)
	}
}

func TestTelemetryEndpoints(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	doJSON(t, http.MethodPost, ts.URL+"/v1/shap", "", shapRequest{Fingerprint: fp, X: []float64{0, 0, 0, 0, 0}})
	for _, path := range []string{"/healthz", "/metrics", "/flight", "/v1/stats"} {
		resp, payload := doJSON(t, http.MethodGet, ts.URL+path, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if len(payload) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
}

// TestPanicRecoveryMiddleware drives a panicking handler through the
// instrumentation wrapper: the client gets a typed 500 and the flight
// recorder is dumped to FlightDir.
func TestPanicRecoveryMiddleware(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{FlightDir: dir})
	defer s.Close()
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/explain", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Kind != "panic" {
		t.Fatalf("body = %s, want kind panic", rec.Body.Bytes())
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "gefd-panic-*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no flight dump written to %s (err %v)", dir, err)
	}
	if fi, err := os.Stat(dumps[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("flight dump empty: %v", err)
	}
}

// TestDegradedExplanationWarns forces the degradation ladder via a
// config the fit cannot honor and checks the 200 + Warning contract.
func TestDegradedExplanationWarns(t *testing.T) {
	_, ts, fp := newTestServer(t, Options{})
	cfg := fastConfig()
	cfg.NumInteractions = 2 // tensor terms on a tiny sample often degrade
	cfg.NumSamples = 200
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "", explainRequest{Fingerprint: fp, Config: cfg})
	if resp.StatusCode != http.StatusOK {
		t.Skipf("config errored instead of degrading (status %d); ladder covered elsewhere", resp.StatusCode)
	}
	var out explainResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Degradations) > 0 && resp.Header.Get("Warning") == "" {
		t.Fatalf("degradations %v present but no Warning header", out.Degradations)
	}
}

func TestNormalizeConfigStable(t *testing.T) {
	// An empty config and an explicitly-default config must produce the
	// same coalescing key.
	a, err := requestKey("explain", "fp", normalizeConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := requestKey("explain", "fp", normalizeConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := requestKey("explain", "fp", normalizeConfig(core.Config{NumUnivariate: 5, NumSamples: 20000}))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct configs share a key")
	}
	if a != c {
		t.Fatal("zero config and explicit defaults hash differently")
	}
	d, err := requestKey("autoexplain", "fp", normalizeConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatal("request kind not part of the key")
	}
}

// TestRequestKeyDistinctPerFamily guards the coalescing contract under
// family mixes: an omitted family and an explicit "gam" coalesce, while
// each distinct family hashes to its own key so a rules request can
// never be answered with a smoother explanation.
func TestRequestKeyDistinctPerFamily(t *testing.T) {
	key := func(fam string) string {
		cfg := fastConfig()
		cfg.Family = fam
		k, err := requestKey("explain", "fp", normalizeConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key("") != key(core.FamilyGAM) {
		t.Fatal("omitted family and explicit gam hash differently")
	}
	seen := map[string]string{}
	for _, fam := range []string{core.FamilyGAM, core.FamilyRules, core.FamilySmoother, core.FamilyLIME, core.FamilyDistill} {
		k := key(fam)
		if prev, dup := seen[k]; dup {
			t.Fatalf("families %q and %q collide on coalescing key %s", prev, fam, k)
		}
		seen[k] = fam
	}
}

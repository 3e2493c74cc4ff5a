package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"gef"
	"gef/internal/core"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/serve"
)

//lint:file-ignore errdrop response bodies are only read, and the in-process server is closed after its last request

// outcome is one op's result: its latency (the program call alone, as
// a user would see it), the R² of a returned explanation, the response
// size, and the error of a failed request or correctness check.
type outcome struct {
	lat   time.Duration
	r2    float64
	hasR2 bool
	bytes int
	err   error
}

// session is a set-up system under test: a gefd server with registered
// forests, or an analyst's library session.
type session interface {
	do(ctx context.Context, o op) outcome
	close()
}

// serveSession is an in-process gefd (default options) behind a loopback
// httptest server, driven by one client over one connection.
type serveSession struct {
	models []*model
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	fps    []string
	// hot holds serve-warm's warm-pass explanation blobs and their R²,
	// by hot-set index; later hot-key responses must match byte for byte.
	hot   map[int][]byte
	hotR2 map[int]float64
}

// openServe builds a server, registers every forest through
// POST /v1/forests and, for serve-warm, requests each hot config once.
func openServe(ctx context.Context, models []*model, warm []op, flightDir string) (*serveSession, error) {
	srv := serve.New(serve.Options{FlightDir: flightDir})
	ts := httptest.NewServer(srv.Handler())
	s := &serveSession{models: models, srv: srv, ts: ts, client: ts.Client(),
		hot: map[int][]byte{}, hotR2: map[int]float64{}}
	for _, m := range models {
		body, status, err := s.post(ctx, "/v1/forests", m.blob)
		if err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("registering %s: status %d: %v %s", m.name, status, err, body)
		}
		var info struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			s.close()
			return nil, fmt.Errorf("registering %s: %w", m.name, err)
		}
		s.fps = append(s.fps, info.Fingerprint)
	}
	for _, o := range warm {
		if out := s.do(ctx, o); out.err != nil {
			s.close()
			return nil, fmt.Errorf("warm pass, hot config %d: %w", o.Hot, out.err)
		}
	}
	return s, nil
}

func (s *serveSession) close() {
	s.ts.Close()
	s.srv.Close()
}

// post sends one request and reads the whole response.
func (s *serveSession) post(ctx context.Context, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// stats fetches GET /v1/stats.
func (s *serveSession) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (s *serveSession) do(ctx context.Context, o op) outcome {
	octx, sp := obs.Start(ctx, "bench.op", obs.Str("kind", o.Kind))
	var path string
	var body []byte
	var err error
	switch o.Kind {
	case "explain":
		path = "/v1/explain"
		body, err = json.Marshal(struct {
			Fingerprint string      `json:"fingerprint"`
			Config      core.Config `json:"config"`
		}{s.fps[o.Model], o.config()})
	case "shap":
		path = "/v1/shap"
		body, err = json.Marshal(struct {
			Fingerprint string    `json:"fingerprint"`
			X           []float64 `json:"x"`
		}{s.fps[o.Model], s.models[o.Model].data.X[o.Row]})
	default:
		err = fmt.Errorf("serve workloads have no %q op", o.Kind)
	}
	if err != nil {
		sp.End()
		return outcome{err: err}
	}
	rctx, rsp := obs.Start(octx, "bench.roundtrip")
	t0 := time.Now()
	resp, status, err := s.post(rctx, path, body)
	lat := time.Since(t0)
	rsp.End()
	sp.End()
	out := outcome{lat: lat, bytes: len(resp)}
	switch {
	case err != nil:
		out.err = err
	case status != http.StatusOK:
		out.err = fmt.Errorf("%s: status %d: %s", path, status, resp)
	case o.Kind == "shap":
		out.err = checkShap(s.models[o.Model].f, s.models[o.Model].data.X[o.Row], resp)
	default:
		out.r2, out.err = s.checkExplain(o, resp)
		out.hasR2 = out.err == nil
	}
	return out
}

// checkExplain verifies an explain response: it decodes with
// core.Unmarshal, carries the requested family and a finite R², and —
// for a serve-warm hot key — is byte-identical to the warm-pass answer.
func (s *serveSession) checkExplain(o op, resp []byte) (float64, error) {
	var er struct {
		Explanation json.RawMessage `json:"explanation"`
	}
	if err := json.Unmarshal(resp, &er); err != nil {
		return 0, fmt.Errorf("explain response: %w", err)
	}
	if o.Hot >= 0 {
		if prev, ok := s.hot[o.Hot]; ok {
			if !bytes.Equal(prev, er.Explanation) {
				return 0, fmt.Errorf("hot config %d: explanation differs from the warm-pass answer", o.Hot)
			}
			return s.hotR2[o.Hot], nil
		}
	}
	ex, err := core.Unmarshal(er.Explanation)
	if err != nil {
		return 0, fmt.Errorf("explain response: %w", err)
	}
	if ex.Family != o.Family {
		return 0, fmt.Errorf("explain response: family %q, requested %q", ex.Family, o.Family)
	}
	r2 := ex.Fidelity.R2
	if math.IsNaN(r2) || math.IsInf(r2, 0) {
		return 0, fmt.Errorf("explain response: fidelity R² %v is not finite", r2)
	}
	if o.Hot >= 0 {
		s.hot[o.Hot] = append([]byte(nil), er.Explanation...)
		s.hotR2[o.Hot] = r2
	}
	return r2, nil
}

// checkShap verifies TreeSHAP local accuracy: base + Σφ equals the
// forest's raw score, computed here by the pointer walk.
func checkShap(f *forest.Forest, x []float64, resp []byte) error {
	var sr struct {
		Phi  []float64 `json:"phi"`
		Base float64   `json:"base"`
	}
	if err := json.Unmarshal(resp, &sr); err != nil {
		return fmt.Errorf("shap response: %w", err)
	}
	if len(sr.Phi) != f.NumFeatures {
		return fmt.Errorf("shap response: %d attributions for %d features", len(sr.Phi), f.NumFeatures)
	}
	sum := sr.Base
	for _, p := range sr.Phi {
		sum += p
	}
	want := f.RawPredict(x)
	if d := math.Abs(sum - want); !(d <= 1e-6*(1+math.Abs(want))) {
		return fmt.Errorf("shap local accuracy: base+Σφ = %v, raw score %v", sum, want)
	}
	return nil
}

// autoSession is the analyst's library path: the forest decoded from its
// serialized bytes, and a fresh gef.Explainer per op.
type autoSession struct {
	f *forest.Forest
	// cacheBytes is the artifact-cache size of the last op's session.
	cacheBytes int64
}

// openAuto decodes and validates the forest, the cost an analyst pays
// before the first AutoExplain.
func openAuto(m *model) (*autoSession, error) {
	f, err := forest.Unmarshal(m.blob)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", m.name, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("validating %s: %w", m.name, err)
	}
	return &autoSession{f: f}, nil
}

func (a *autoSession) close() {}

func (a *autoSession) do(ctx context.Context, o op) outcome {
	octx, sp := obs.Start(ctx, "bench.op", obs.Str("kind", o.Kind))
	t0 := time.Now()
	sess := gef.NewExplainer(a.f)
	ex, steps, err := sess.AutoExplainContext(octx, core.AutoConfig{
		Base:            core.Config{NumSamples: o.NumSamples, Seed: o.Seed},
		MaxUnivariate:   6,
		MaxInteractions: 2,
	})
	lat := time.Since(t0)
	sp.End()
	a.cacheBytes = sess.CacheStats().Bytes
	out := outcome{lat: lat}
	switch {
	case err != nil:
		out.err = err
	case ex.Family != core.FamilyGAM || ex.Model == nil:
		out.err = fmt.Errorf("autoexplain: family %q, want a gam model", ex.Family)
	case len(steps) == 0:
		out.err = fmt.Errorf("autoexplain: empty search trace")
	case math.IsNaN(ex.Fidelity.R2) || math.IsInf(ex.Fidelity.R2, 0):
		out.err = fmt.Errorf("autoexplain: fidelity R² %v is not finite", ex.Fidelity.R2)
	default:
		out.r2, out.hasR2 = ex.Fidelity.R2, true
	}
	return out
}

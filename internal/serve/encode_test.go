package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"gef/internal/core"
	"gef/internal/robust"
)

// explainResponse is the explain/autoexplain response body as the
// encoding/json reference writes it; appendExplainResponse must
// reproduce writeJSON's bytes for it exactly. Tests decode responses
// through it too.
type explainResponse struct {
	Fingerprint  string               `json:"fingerprint"`
	Coalesced    bool                 `json:"coalesced"`
	Degradations []robust.Degradation `json:"degradations,omitempty"`
	Steps        []core.AutoStep      `json:"steps,omitempty"`
	Explanation  json.RawMessage      `json:"explanation"`
}

// referenceResponse writes the explain response the way gefd did before
// the splice: writeJSON of explainResponse, the blob as a RawMessage.
func referenceResponse(t *testing.T, fp string, ex *core.Explanation, steps []core.AutoStep, coalesced, includeCI bool) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := ex.Marshal(includeCI)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	if n := len(ex.Degradations); n > 0 {
		rec.Header().Set("Warning", fmt.Sprintf("199 gefd \"degraded result: %d recorded degradation(s)\"", n))
	}
	writeJSON(rec, http.StatusOK, explainResponse{
		Fingerprint:  fp,
		Coalesced:    coalesced,
		Degradations: ex.Degradations,
		Steps:        steps,
		Explanation:  blob,
	})
	return rec
}

// TestExplainResponseMatchesReference: for every family × includeCI ×
// {clean, degraded} × coalesced, and for autoexplain responses with
// their search steps, writeExplanation's status, headers and body equal
// the encoding/json reference byte for byte.
func TestExplainResponseMatchesReference(t *testing.T) {
	s, _, fp := newTestServer(t, Options{})
	f, err := s.forestFor(fp)
	if err != nil {
		t.Fatal(err)
	}
	type fixture struct {
		name  string
		ex    *core.Explanation
		steps []core.AutoStep
	}
	var fixtures []fixture
	for _, fam := range core.Families() {
		cfg := fastConfig()
		cfg.Family = fam
		cfg.NumInteractions = 1
		ex, err := s.eng.Explain(f, normalizeConfig(cfg))
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		degraded := *ex
		degraded.Degradations = append(append([]robust.Degradation(nil), ex.Degradations...), robust.Degradation{
			Stage: "sampling", Action: robust.ActionDropFeature,
			Reason: "collapsed <domain> & more", Detail: "feature 2 dropped from F′",
		})
		fixtures = append(fixtures, fixture{fam + "/clean", ex, nil}, fixture{fam + "/degraded", &degraded, nil})
	}
	auto, steps, err := s.eng.AutoExplain(f, core.AutoConfig{Base: normalizeConfig(fastConfig()), MaxUnivariate: 3, MaxInteractions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("AutoExplain returned no search steps")
	}
	fixtures = append(fixtures, fixture{"auto", auto, steps})

	for _, fx := range fixtures {
		for _, ci := range []bool{false, true} {
			for _, coalesced := range []bool{false, true} {
				want := referenceResponse(t, fp, fx.ex, fx.steps, coalesced, ci)
				got := httptest.NewRecorder()
				s.writeExplanation(context.Background(), got, fp, fx.ex, fx.steps, coalesced, ci)
				name := fmt.Sprintf("%s ci=%v coalesced=%v", fx.name, ci, coalesced)
				if got.Code != want.Code {
					t.Fatalf("%s: status %d, reference %d", name, got.Code, want.Code)
				}
				for _, h := range []string{"Content-Type", "Warning"} {
					if got.Header().Get(h) != want.Header().Get(h) {
						t.Fatalf("%s: %s header %q, reference %q", name, h, got.Header().Get(h), want.Header().Get(h))
					}
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("%s: body differs from the reference\n got %.300s\nwant %.300s", name, got.Body.Bytes(), want.Body.Bytes())
				}
			}
		}
	}
}

// TestExplainEndpointBodyMatchesReference drives the real handler: a
// warm /v1/explain body equals the reference response for the same
// engine's explanation.
func TestExplainEndpointBodyMatchesReference(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{})
	req := explainRequest{Fingerprint: fp, Config: fastConfig(), IncludeCI: true}
	for i := 0; i < 2; i++ {
		resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, payload)
		}
		f, err := s.forestFor(fp)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := s.eng.Explain(f, normalizeConfig(req.Config))
		if err != nil {
			t.Fatal(err)
		}
		want := referenceResponse(t, fp, ex, nil, false, true)
		if !bytes.Equal(payload, want.Body.Bytes()) {
			t.Fatalf("request %d: body differs from the reference\n got %.300s\nwant %.300s", i, payload, want.Body.Bytes())
		}
	}
}

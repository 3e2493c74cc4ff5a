package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"

	"gef/internal/core"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/robust"
	"gef/internal/sampling"
	"gef/internal/shap"
)

// explainRequest is the POST /v1/explain body. Config uses core.Config
// field names verbatim ({"NumUnivariate": 4, "Sampling": {"Strategy":
// "equi-size", "K": 128}, ...}); zero-valued knobs take the server
// defaults from normalizeConfig before validation and key hashing, so
// an empty config and an explicitly-default config coalesce.
type explainRequest struct {
	Fingerprint string      `json:"fingerprint"`
	Config      core.Config `json:"config"`
	BudgetMS    int         `json:"budget_ms"`
	IncludeCI   bool        `json:"include_ci"`
}

// autoRequest is the POST /v1/autoexplain body.
type autoRequest struct {
	Fingerprint string          `json:"fingerprint"`
	Auto        core.AutoConfig `json:"auto"`
	BudgetMS    int             `json:"budget_ms"`
	IncludeCI   bool            `json:"include_ci"`
}

// shapRequest is the POST /v1/shap body. With a background set the
// server computes interventional values; otherwise path-dependent.
type shapRequest struct {
	Fingerprint string      `json:"fingerprint"`
	X           []float64   `json:"x"`
	Background  [][]float64 `json:"background,omitempty"`
	BudgetMS    int         `json:"budget_ms"`
}

type shapResponse struct {
	Fingerprint string    `json:"fingerprint"`
	Coalesced   bool      `json:"coalesced"`
	Phi         []float64 `json:"phi"`
	Base        float64   `json:"base"`
}

// forestInfo is the registry view of one forest.
type forestInfo struct {
	Fingerprint string `json:"fingerprint"`
	Trees       int    `json:"trees"`
	Nodes       int    `json:"nodes"`
	Features    int    `json:"features"`
}

// decodeJSON parses a request body under the server's size cap; any
// failure is a client error (ErrConfig → 400).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("%w: parsing request body: %v", robust.ErrConfig, err)
	}
	return nil
}

// normalizeConfig fills server defaults into zero-valued knobs. Run
// before both validation and key hashing: two requests that mean the
// same computation must hash to the same coalescing key. Family is
// defaulted here too, so requests for different explainer families
// always carry distinct keys (an explicit "gam" and an omitted family
// still coalesce) and an unknown family fails Validate with the typed
// 400 instead of reaching the engine.
func normalizeConfig(cfg core.Config) core.Config {
	if cfg.Family == "" {
		cfg.Family = core.FamilyGAM
	}
	if cfg.NumUnivariate == 0 {
		cfg.NumUnivariate = 5
	}
	if cfg.Sampling.Strategy == "" {
		cfg.Sampling.Strategy = sampling.EquiSize
	}
	if cfg.Sampling.K == 0 {
		cfg.Sampling.K = 256
	}
	if cfg.NumSamples == 0 {
		cfg.NumSamples = 20000
	}
	return cfg
}

// requestKey builds the coalescing key: kind, forest fingerprint, and
// an FNV-1a digest of the normalized request payload's canonical JSON
// (struct field order is fixed, so encoding/json is canonical here).
// The config hash is load-bearing: coalescing on (kind, fingerprint)
// alone would hand a waiter an explanation computed under someone
// else's knobs — silently wrong answers, the worst failure mode a
// server can have. Values that survived JSON decoding re-encode
// losslessly, so the digest is total on reachable inputs.
func requestKey(kind, fp string, payload any) (string, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("%w: unencodable request: %v", robust.ErrConfig, err)
	}
	h := fnv.New64a()
	//lint:ignore errdrop hash.Hash Write never returns an error
	h.Write([]byte(kind))
	//lint:ignore errdrop hash.Hash Write never returns an error
	h.Write([]byte{0})
	//lint:ignore errdrop hash.Hash Write never returns an error
	h.Write([]byte(fp))
	//lint:ignore errdrop hash.Hash Write never returns an error
	h.Write([]byte{0})
	//lint:ignore errdrop hash.Hash Write never returns an error
	h.Write(b)
	return kind + ":" + fp + ":" + strconv.FormatUint(h.Sum64(), 16), nil
}

// serveComputation runs the admission → coalesce → compute pipeline for
// one request and reports (value, coalesced, ok); on !ok the error
// response has already been written.
func (s *Server) serveComputation(
	w http.ResponseWriter, r *http.Request,
	tenant string, budgetMS int, key string,
	lead func(context.Context) (any, error),
) (any, bool, bool) {
	budget := s.requestBudget(budgetMS)
	rctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	release, err := s.adm.enter(s.Draining())
	if err != nil {
		s.writeError(w, tenant, err)
		return nil, false, false
	}
	defer release()

	val, joined, err := s.coal.do(rctx, key,
		func() (context.Context, context.CancelFunc) { return s.computeCtx(budget) },
		func(cctx context.Context) (any, error) {
			tok, terr := s.adm.token(cctx)
			if terr != nil {
				return nil, terr
			}
			defer tok()
			return lead(cctx)
		})
	if joined {
		mCoalesceHits.Inc()
		s.tenantStat(tenant, func(ts *TenantStats) { ts.CoalesceHits++ })
	} else {
		mCoalesceLeads.Inc()
		s.tenantStat(tenant, func(ts *TenantStats) { ts.CoalesceLeads++ })
	}
	if err != nil {
		s.writeError(w, tenant, err)
		return nil, joined, false
	}
	return val, joined, true
}

// writeExplanation emits the 200 response for explain/autoexplain,
// advertising any degradations in a Warning header so even clients
// that only check headers see "this answer is simplified".
func (s *Server) writeExplanation(ctx context.Context, w http.ResponseWriter, fp string, ex *core.Explanation, steps []core.AutoStep, coalesced, includeCI bool) {
	var body []byte
	blob, err := ex.MarshalCtx(ctx, includeCI)
	if err == nil {
		body, err = appendExplainResponse(make([]byte, 0, len(blob)+512), fp, coalesced, ex.Degradations, steps, blob)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Kind: "internal"})
		return
	}
	if n := len(ex.Degradations); n > 0 {
		w.Header().Set("Warning", fmt.Sprintf("199 gefd \"degraded result: %d recorded degradation(s)\"", n))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		obs.RecordError("serve.write", err)
	}
}

// appendExplainResponse appends the explain/autoexplain response body
// to buf: the versioned explanation blob wrapped as
//
//	{"fingerprint":…,"coalesced":…,"degradations":[…],"steps":[…],"explanation":{…}}
//
// plus writeJSON's trailing newline. Degradations are duplicated at the
// top level (they also travel inside the blob) so clients can check
// "did the ladder fire" without decoding the explanation, mirroring the
// Warning header; both they and steps are omitted when empty. The blob
// is spliced in as is: it is already compact, HTML-escaped JSON, so
// passing it through encoding/json as a RawMessage would only re-scan
// it into the same bytes.
func appendExplainResponse(buf []byte, fp string, coalesced bool, degr []robust.Degradation, steps []core.AutoStep, blob []byte) ([]byte, error) {
	buf = append(buf, `{"fingerprint":`...)
	b, err := json.Marshal(fp)
	if err != nil {
		return nil, err
	}
	buf = append(buf, b...)
	buf = append(buf, `,"coalesced":`...)
	buf = strconv.AppendBool(buf, coalesced)
	if len(degr) > 0 {
		if b, err = json.Marshal(degr); err != nil {
			return nil, err
		}
		buf = append(append(buf, `,"degradations":`...), b...)
	}
	if len(steps) > 0 {
		if b, err = json.Marshal(steps); err != nil {
			return nil, err
		}
		buf = append(append(buf, `,"steps":`...), b...)
	}
	buf = append(buf, `,"explanation":`...)
	buf = append(buf, blob...)
	return append(buf, '}', '\n'), nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	s.tenantStat(tenant, func(ts *TenantStats) { ts.Requests++ })
	var req explainRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, tenant, err)
		return
	}
	f, err := s.forestFor(req.Fingerprint)
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	cfg := normalizeConfig(req.Config)
	if err := cfg.Validate(); err != nil {
		s.writeError(w, tenant, err)
		return
	}
	s.tenantStat(tenant, func(ts *TenantStats) { ts.family(cfg.Family) })
	key, err := requestKey("explain", req.Fingerprint, cfg)
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	val, coalesced, ok := s.serveComputation(w, r, tenant, req.BudgetMS, key,
		func(cctx context.Context) (any, error) {
			return s.runExplain(cctx, tenant, f, cfg)
		})
	if !ok {
		return
	}
	s.writeExplanation(r.Context(), w, req.Fingerprint, val.(*core.Explanation), nil, coalesced, req.IncludeCI)
}

// autoResult carries AutoExplainCtx's pair through the coalescer.
type autoResult struct {
	ex    *core.Explanation
	steps []core.AutoStep
}

func (s *Server) handleAutoExplain(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	s.tenantStat(tenant, func(ts *TenantStats) { ts.Requests++ })
	var req autoRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, tenant, err)
		return
	}
	f, err := s.forestFor(req.Fingerprint)
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	auto := req.Auto
	auto.Base = normalizeConfig(auto.Base)
	if err := auto.Base.Validate(); err != nil {
		s.writeError(w, tenant, err)
		return
	}
	key, err := requestKey("autoexplain", req.Fingerprint, auto)
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	val, coalesced, ok := s.serveComputation(w, r, tenant, req.BudgetMS, key,
		func(cctx context.Context) (any, error) {
			return s.runAuto(cctx, tenant, f, auto)
		})
	if !ok {
		return
	}
	res := val.(*autoResult)
	s.writeExplanation(r.Context(), w, req.Fingerprint, res.ex, res.steps, coalesced, req.IncludeCI)
}

func (s *Server) handleShap(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	s.tenantStat(tenant, func(ts *TenantStats) { ts.Requests++ })
	var req shapRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, tenant, err)
		return
	}
	f, err := s.forestFor(req.Fingerprint)
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	if len(req.X) != f.NumFeatures {
		s.writeError(w, tenant, fmt.Errorf("%w: x has %d features, forest expects %d",
			robust.ErrConfig, len(req.X), f.NumFeatures))
		return
	}
	for i, b := range req.Background {
		if len(b) != f.NumFeatures {
			s.writeError(w, tenant, fmt.Errorf("%w: background row %d has %d features, forest expects %d",
				robust.ErrConfig, i, len(b), f.NumFeatures))
			return
		}
	}
	key, err := requestKey("shap", req.Fingerprint, struct {
		X          []float64
		Background [][]float64
	}{req.X, req.Background})
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	val, coalesced, ok := s.serveComputation(w, r, tenant, req.BudgetMS, key,
		func(cctx context.Context) (any, error) {
			return s.runShap(cctx, f, req.X, req.Background)
		})
	if !ok {
		return
	}
	res := val.(*shapResponse)
	writeJSON(w, http.StatusOK, shapResponse{
		Fingerprint: req.Fingerprint,
		Coalesced:   coalesced,
		Phi:         res.Phi,
		Base:        res.Base,
	})
}

// runExplain leads one explain computation, charging the engine-cache
// delta to the leading tenant.
func (s *Server) runExplain(ctx context.Context, tenant string, f *forest.Forest, cfg core.Config) (*core.Explanation, error) {
	ctx, sp := obs.Start(ctx, "serve.explain", obs.Str("tenant", tenant))
	defer sp.End()
	before := s.eng.CacheStats()
	ex, err := s.eng.ExplainCtx(ctx, f, cfg)
	s.accountEngine(tenant, before, s.eng.CacheStats())
	return ex, err
}

func (s *Server) runAuto(ctx context.Context, tenant string, f *forest.Forest, auto core.AutoConfig) (*autoResult, error) {
	ctx, sp := obs.Start(ctx, "serve.autoexplain", obs.Str("tenant", tenant))
	defer sp.End()
	before := s.eng.CacheStats()
	ex, steps, err := s.eng.AutoExplainCtx(ctx, f, auto)
	s.accountEngine(tenant, before, s.eng.CacheStats())
	if err != nil {
		return nil, err
	}
	return &autoResult{ex: ex, steps: steps}, nil
}

// runShap computes SHAP attributions. The TreeSHAP kernels take no
// context (they are fast relative to explanation fits), so the budget
// is enforced at the boundary: a request whose deadline has already
// passed is not started.
func (s *Server) runShap(ctx context.Context, f *forest.Forest, x []float64, background [][]float64) (*shapResponse, error) {
	_, sp := obs.Start(ctx, "serve.shap")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, robust.CtxErr(err)
	}
	var phi []float64
	var base float64
	if len(background) > 0 {
		phi, base = shap.InterventionalValues(f, x, background)
	} else {
		phi, base = shap.Values(f, x)
	}
	return &shapResponse{Phi: phi, Base: base}, nil
}

func (s *Server) handleForestPost(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	f, err := forest.ReadFrom(r.Body)
	if err != nil {
		s.writeError(w, tenant, fmt.Errorf("%w: decoding forest: %v", robust.ErrConfig, err))
		return
	}
	fp, err := s.RegisterForest(f)
	if err != nil {
		s.writeError(w, tenant, err)
		return
	}
	writeJSON(w, http.StatusOK, forestInfo{
		Fingerprint: fp,
		Trees:       len(f.Trees),
		Nodes:       f.NumNodes(),
		Features:    f.NumFeatures,
	})
}

func (s *Server) handleForestList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]forestInfo, 0, len(s.forests))
	for fp, rf := range s.forests {
		infos = append(infos, forestInfo{Fingerprint: fp, Trees: rf.trees, Nodes: rf.nodes, Features: rf.features})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Fingerprint < infos[j].Fingerprint })
	writeJSON(w, http.StatusOK, struct {
		Forests []forestInfo `json:"forests"`
	}{infos})
}

func (s *Server) handleForestDelete(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !s.dropForest(fp) {
		s.writeError(w, tenantOf(r), fmt.Errorf("forest %q: %w", fp, errNotFound))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Fingerprint string `json:"fingerprint"`
		Deleted     bool   `json:"deleted"`
	}{fp, true})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

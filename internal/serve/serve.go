// Package serve is gefd's serving layer: a fault-tolerant multi-tenant
// explanation server over the staged core.Engine. Every request walks
// the same pipeline:
//
//	admission → coalescing → engine
//
// Admission bounds how much work the process accepts: a request enters
// a bounded admitted set (waiters plus computations) or is shed with
// 429 + Retry-After; worker tokens — sized from the par worker count —
// bound how many computations run at once, and requests queue for a
// token only as long as their deadline allows. Coalescing deduplicates
// concurrent identical work: requests with the same (kind, forest
// fingerprint, config hash) share one computation whose lifetime is
// detached from any single client, so a waiter cancelling never cancels
// the shared result. The engine underneath is one byte-budgeted
// artifact cache shared across all tenants, with per-tenant hit/miss
// accounting at the serve layer.
//
// Failure handling is uniform: every error leaving a handler is mapped
// through the robust taxonomy to a typed HTTP status (ErrConfig → 400,
// ErrDeadline → 504, shed → 429, ErrNumerical and panics → 500),
// degraded-but-valid explanations return 200 with a Degradations block
// and a Warning header, and panics snapshot the flight recorder to disk
// before answering 500. SIGTERM (wired in cmd/gefd) triggers Drain:
// the listener stops accepting, in-flight requests finish under the
// drain deadline, and stragglers are timed out with 504.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"gef/internal/core"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
)

// Metrics instruments (hoisted; see internal/obs). Endpoint and status
// labels are drawn from fixed sets (endpointLabel and the typed status
// contract), so series cardinality is bounded. Tenant accounting lives
// in Server.Stats, not in metric labels, because tenant names are
// client-supplied and would make the series set unbounded.
var (
	mRequests      = obs.Metrics().CounterVec("serve.requests", "endpoint", "status")
	mShed          = obs.Metrics().Counter("serve.shed")
	mPanics        = obs.Metrics().Counter("serve.panics")
	mCoalesceHits  = obs.Metrics().Counter("serve.coalesce_hits")
	mCoalesceLeads = obs.Metrics().Counter("serve.coalesce_leaders")
	mDrainTimeouts = obs.Metrics().Counter("serve.drain_timeouts")
	gInFlight      = obs.Metrics().Gauge("serve.inflight")
	gAdmitted      = obs.Metrics().Gauge("serve.admitted")
	hLatencyMs     = obs.Metrics().HistogramVecBuckets("serve.latency_ms",
		[]float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}, "endpoint")
)

// Options configures a Server. The zero value serves with the defaults
// documented per field.
type Options struct {
	// Budget is the per-request compute budget (default 30s). A request
	// may lower — never raise — its own budget with budget_ms.
	Budget time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default 10s); requests still running at the deadline are timed
	// out with 504.
	DrainTimeout time.Duration
	// MaxInFlight is the worker-token count bounding concurrent
	// computations (default par.Workers()).
	MaxInFlight int
	// MaxQueue bounds how many admitted requests may wait beyond the
	// in-flight workers (default 256; negative = no waiting room).
	// Arrivals past the bound are shed with 429.
	MaxQueue int
	// CacheBudget is the shared engine artifact-cache budget in bytes
	// (0 = the engine default of 256 MiB, negative disables caching).
	CacheBudget int64
	// MaxBodyBytes caps request bodies (default 64 MiB — forests are
	// posted as JSON).
	MaxBodyBytes int64
	// FlightDir receives panic flight-recorder dumps (default the OS
	// temp dir).
	FlightDir string
	// MaxTenants bounds the per-tenant accounting map (default 1024);
	// further tenants aggregate under "other".
	MaxTenants int
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = par.Workers()
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = 256
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.FlightDir == "" {
		o.FlightDir = os.TempDir()
	}
	if o.MaxTenants <= 0 {
		o.MaxTenants = 1024
	}
	return o
}

// registeredForest is one registry entry with its display metadata.
type registeredForest struct {
	f        *forest.Forest
	trees    int
	nodes    int
	features int
}

// Server is the gefd explanation server. Build with New, mount Handler
// on a listener (or call Serve), and stop with Drain/Close. A Server is
// safe for concurrent use.
type Server struct {
	opt  Options
	eng  *core.Engine
	adm  *admission
	coal *group

	mu      sync.Mutex
	forests map[string]*registeredForest
	tenants map[string]*TenantStats
	started time.Time

	// drainMu guards the drain state and the compute base context that
	// every coalesced computation derives from.
	drainMu       sync.Mutex
	draining      bool
	drainAt       time.Time
	computeBase   context.Context
	cancelCompute context.CancelCauseFunc
	drainTimer    *time.Timer

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// errDrainDeadline is the cancellation cause installed when the drain
// deadline expires; it wraps ErrDeadline so in-flight requests surface
// as 504, the same class as a budget expiry.
var errDrainDeadline = fmt.Errorf("%w: drain deadline expired", robust.ErrDeadline)

// errClosed is the cancellation cause for a hard Close; it wraps
// ErrDeadline so any computation it interrupts still surfaces typed.
var errClosed = fmt.Errorf("%w: server closed", robust.ErrDeadline)

// New builds a Server with its own shared engine cache.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	var eng *core.Engine
	switch {
	case opt.CacheBudget == 0:
		eng = core.NewEngine()
	default:
		eng = core.NewEngineBudget(opt.CacheBudget)
	}
	base, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		opt:           opt,
		eng:           eng,
		adm:           newAdmission(opt.MaxInFlight, opt.MaxQueue),
		forests:       make(map[string]*registeredForest),
		tenants:       make(map[string]*TenantStats),
		started:       time.Now(),
		computeBase:   base,
		cancelCompute: cancel,
	}
	s.coal = newGroup(s.dumpPanicFlight)
	return s
}

// dumpPanicFlight snapshots the flight recorder after a panic in a
// coalesced leader (the HTTP middleware handles handler panics).
func (s *Server) dumpPanicFlight(err error) {
	mPanics.Inc()
	path := filepath.Join(s.opt.FlightDir, fmt.Sprintf("gefd-panic-%d.json", time.Now().UnixNano()))
	if derr := obs.DumpFlightFile(path); derr != nil {
		fmt.Fprintf(os.Stderr, "gefd: %v; panic flight dump failed: %v\n", err, derr)
		return
	}
	fmt.Fprintf(os.Stderr, "gefd: %v; flight recorder dumped to %s\n", err, path)
}

// Engine exposes the shared artifact cache (for stats reporting).
func (s *Server) Engine() *core.Engine { return s.eng }

// RegisterForest seals f (a no-op for a decoded forest, which arrives
// sealed), adds it to the registry and returns its fingerprint.
// Registration is idempotent: re-registering a structurally identical
// forest keeps the existing entry.
func (s *Server) RegisterForest(f *forest.Forest) (string, error) {
	if err := f.Seal(); err != nil {
		return "", fmt.Errorf("%w: %v", robust.ErrDegenerate, err)
	}
	fp := f.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.forests[fp]; !ok {
		s.forests[fp] = &registeredForest{f: f, trees: len(f.Trees), nodes: f.NumNodes(), features: f.NumFeatures}
	}
	return fp, nil
}

// forestFor resolves a fingerprint to its registered forest.
func (s *Server) forestFor(fp string) (*forest.Forest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rf, ok := s.forests[fp]
	if !ok {
		return nil, fmt.Errorf("forest %q: %w", fp, errNotFound)
	}
	return rf.f, nil
}

// dropForest removes a fingerprint from the registry. Engine artifacts
// keyed by the fingerprint stay resident until evicted by the cache
// budget — they are harmless without the forest and disappear under
// memory pressure.
func (s *Server) dropForest(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.forests[fp]; !ok {
		return false
	}
	delete(s.forests, fp)
	return true
}

// requestBudget resolves the effective compute budget for a request:
// the server budget, lowered (never raised) by the request's
// budget_ms.
func (s *Server) requestBudget(budgetMS int) time.Duration {
	b := s.opt.Budget
	if budgetMS > 0 {
		if rb := time.Duration(budgetMS) * time.Millisecond; rb < b {
			b = rb
		}
	}
	return b
}

// computeCtx derives the context a shared computation runs under: the
// server's compute base (cancelled with a typed cause at the drain
// deadline or on Close), capped by the request budget and — when a
// drain is already in progress — by the drain deadline. Deliberately
// NOT derived from any single client's request context: coalesced
// computations outlive individual waiters.
func (s *Server) computeCtx(budget time.Duration) (context.Context, context.CancelFunc) {
	s.drainMu.Lock()
	base := s.computeBase
	deadline := time.Now().Add(budget)
	if s.draining && s.drainAt.Before(deadline) {
		deadline = s.drainAt
	}
	s.drainMu.Unlock()
	return context.WithDeadline(base, deadline)
}

// Draining reports whether a drain is in progress.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Drain performs the graceful-shutdown protocol: stop admitting (new
// arrivals shed with 429), stop accepting connections if a listener is
// attached, let in-flight requests finish under the drain deadline, and
// time out stragglers with 504 (the serve.drain fault site forces the
// deadline to zero). Drain is idempotent; the first call fixes the
// deadline.
func (s *Server) Drain() error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		d := s.opt.DrainTimeout
		if robust.Fire(robust.SiteDrain, -1, 0) {
			d = 0
		}
		s.drainAt = time.Now().Add(d)
		cancel := s.cancelCompute
		s.drainTimer = time.AfterFunc(time.Until(s.drainAt), func() {
			mDrainTimeouts.Inc()
			cancel(errDrainDeadline)
		})
	}
	at := s.drainAt
	s.drainMu.Unlock()

	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	sctx, cancel := context.WithDeadline(context.Background(), at.Add(100*time.Millisecond))
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// The drain deadline passed with connections still open: the
		// compute cancellation has already typed the in-flight requests
		// as 504; close what remains.
		//lint:ignore errdrop Close after a timed-out Shutdown is best-effort by design
		srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// Close cancels every computation immediately and closes the listener.
// Prefer Drain for orderly shutdown.
func (s *Server) Close() error {
	s.drainMu.Lock()
	s.draining = true
	if s.drainTimer != nil {
		s.drainTimer.Stop()
	}
	s.cancelCompute(errClosed)
	s.drainMu.Unlock()
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Serve attaches an http.Server to ln and blocks until Drain or Close.
// A clean shutdown returns nil.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Listen binds addr (":0" for an ephemeral port) and serves in the
// calling goroutine via Serve. The bound address is reported through
// the optional ready callback before blocking.
func (s *Server) Listen(addr string, ready func(bound string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	return s.Serve(ln)
}

// Handler returns the full gefd HTTP surface:
//
//	POST   /v1/explain      explanation for a registered forest
//	POST   /v1/autoexplain  component-count search
//	POST   /v1/shap         per-instance TreeSHAP attributions
//	POST   /v1/forests      register a forest (versioned wire JSON)
//	GET    /v1/forests      list registered forests
//	DELETE /v1/forests/{fp} unregister
//	GET    /v1/stats        serving statistics (per-tenant accounting)
//	/metrics /healthz /flight  operational telemetry (internal/obs)
//
// Every response is JSON; failures follow the typed status contract in
// the package comment.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/autoexplain", s.handleAutoExplain)
	mux.HandleFunc("POST /v1/shap", s.handleShap)
	mux.HandleFunc("POST /v1/forests", s.handleForestPost)
	mux.HandleFunc("GET /v1/forests", s.handleForestList)
	mux.HandleFunc("DELETE /v1/forests/{fp}", s.handleForestDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	telemetry := obs.Handler()
	mux.Handle("/metrics", telemetry)
	mux.Handle("/healthz", telemetry)
	mux.Handle("/flight", telemetry)
	return s.instrument(mux)
}

// endpointLabel maps a request path to its bounded metrics label.
func endpointLabel(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/explain":
		return "explain"
	case r.URL.Path == "/v1/autoexplain":
		return "autoexplain"
	case r.URL.Path == "/v1/shap":
		return "shap"
	case r.URL.Path == "/v1/forests" || len(r.URL.Path) > len("/v1/forests/") && r.URL.Path[:len("/v1/forests/")] == "/v1/forests/":
		return "forests"
	case r.URL.Path == "/v1/stats":
		return "stats"
	case r.URL.Path == "/metrics" || r.URL.Path == "/healthz" || r.URL.Path == "/flight":
		return "telemetry"
	default:
		return "other"
	}
}

// statusWriter captures the status code a handler wrote so the
// instrumentation middleware can label serve.requests.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps the mux with panic-to-500 recovery and per-request
// metrics. Recovery snapshots the flight recorder to disk — a panic in
// a handler is exactly the post-mortem the ring exists for — and
// answers a typed 500 when the response has not started.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ep := endpointLabel(r)
		defer func() {
			if rec := recover(); rec != nil {
				s.recoverPanic(sw, rec)
			}
			mRequests.With(ep, strconv.Itoa(sw.status)).Inc()
			hLatencyMs.With(ep).Observe(float64(time.Since(start).Microseconds()) / 1000)
		}()
		next.ServeHTTP(sw, r)
	})
}

// recoverPanic converts a handler panic into a typed 500 plus a flight
// dump under Options.FlightDir.
func (s *Server) recoverPanic(sw *statusWriter, rec any) {
	mPanics.Inc()
	err := fmt.Errorf("panic: %v", rec)
	obs.RecordError("serve.panic", err)
	fmt.Fprintf(os.Stderr, "gefd: recovered %v\n%s", rec, debug.Stack())
	path := filepath.Join(s.opt.FlightDir, fmt.Sprintf("gefd-panic-%d.json", time.Now().UnixNano()))
	if derr := obs.DumpFlightFile(path); derr != nil {
		fmt.Fprintf(os.Stderr, "gefd: panic flight dump failed: %v\n", derr)
	} else {
		fmt.Fprintf(os.Stderr, "gefd: flight recorder dumped to %s\n", path)
	}
	if !sw.wrote {
		writeJSON(sw, http.StatusInternalServerError, errorBody{Error: err.Error(), Kind: "panic"})
	}
}

package core

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"

	"gef/internal/dataset"
	"gef/internal/featsel"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/robust"
)

// Cache instruments, hoisted like the other pipeline metrics. One
// labeled family per outcome — series land in the registry as
// engine.cache_hits{stage="..."} / engine.cache_misses{stage="..."} and
// aggregate naturally under Prometheus sum().
var (
	mEngineHits   = obs.Metrics().CounterVec("engine.cache_hits", "stage")
	mEngineMisses = obs.Metrics().CounterVec("engine.cache_misses", "stage")
)

// defaultCacheBudget bounds the payload bytes the artifact cache may
// hold. Sampled datasets dominate artifact cost (|D*| rows × width ×
// 8 bytes), so the budget is sized to keep a handful of D* variants
// resident without letting a batch sweep grow the process unboundedly.
const defaultCacheBudget = 256 << 20

// Engine runs the staged GEF pipeline with a bounded cross-call
// artifact cache. Each stage (featsel, domains, sample, interactions,
// fit) derives a deterministic cache key — the forest fingerprint plus
// exactly the configuration fields the stage reads — so AutoExplain's
// candidate search, repeated Explain calls with overlapping configs and
// batch CLI runs reuse forest statistics, threshold sets, sampling
// domains, sampled D* splits and interaction rankings instead of
// recomputing them — and because every explainer family shares those
// upstream stages, a family sweep on one engine pays for them once.
// Every family's fitted model, with its fidelity, is an ordinary
// fit-stage artifact (see Surrogate.Key).
//
// Cached artifacts are immutable by convention: stages copy anything
// they need to mutate, and result fields that alias cache entries
// (Explanation.Domains, .Train, .Test, .Model, .Surrogate) are shared.
// Because every artifact is a pure function of its key, a warm-cache run
// is bitwise identical to a cold one — the determinism contract
// (identical output at any worker count) extends across cache states.
// When a fault injector is installed the cache is bypassed entirely, so
// injection plans always exercise the real computation they target.
//
// An Engine is safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	stages  map[string]*StageCacheStats
}

// cacheEntry is one cached artifact with its bookkeeping.
type cacheEntry struct {
	key   string
	stage string
	val   any
	cost  int64
}

// NewEngine returns an engine with the default cache budget.
func NewEngine() *Engine { return NewEngineBudget(defaultCacheBudget) }

// NewEngineBudget returns an engine whose artifact cache holds at most
// budgetBytes of artifact payload (approximate, counted per artifact);
// least-recently-used artifacts are evicted beyond it. A budget ≤ 0
// disables caching — every stage recomputes.
func NewEngineBudget(budgetBytes int64) *Engine {
	return &Engine{
		budget:  budgetBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		stages:  make(map[string]*StageCacheStats),
	}
}

// shared is the process-wide engine behind the package-level Explain /
// AutoExplain wrappers, so plain library use and batch CLI runs get
// cross-call reuse without holding an explicit session.
var shared = NewEngine()

// SharedEngine returns the process-wide engine the package-level
// Explain/AutoExplain wrappers run on (e.g. for cache-stats reporting).
func SharedEngine() *Engine { return shared }

// Explain runs the full GEF pipeline on the forest through e's cache.
func (e *Engine) Explain(f *forest.Forest, cfg Config) (*Explanation, error) {
	return e.ExplainCtx(context.Background(), f, cfg)
}

// AutoExplain is AutoExplainCtx without context propagation.
func (e *Engine) AutoExplain(f *forest.Forest, cfg AutoConfig) (*Explanation, []AutoStep, error) {
	return e.AutoExplainCtx(context.Background(), f, cfg)
}

// StageCacheStats counts one stage's artifact-cache outcomes.
type StageCacheStats struct {
	Hits   int64
	Misses int64
}

// CacheStats is a point-in-time summary of an engine's artifact cache.
type CacheStats struct {
	Hits    int64 // artifact lookups served from cache
	Misses  int64 // artifact lookups that had to compute
	Entries int   // artifacts currently resident
	Bytes   int64 // approximate payload bytes currently resident
	// Stages breaks hits/misses down per stage name (stats, featsel,
	// domains, sample, interactions, fit).
	Stages map[string]StageCacheStats
}

// CacheStats returns the engine's current cache statistics.
//
//lint:ignore obsspan diagnostic snapshot under a mutex; spanning it would distort the traces it reports on
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := CacheStats{
		Entries: e.lru.Len(),
		Bytes:   e.used,
		Stages:  make(map[string]StageCacheStats, len(e.stages)),
	}
	for name, st := range e.stages {
		s.Stages[name] = *st
		s.Hits += st.Hits
		s.Misses += st.Misses
	}
	return s
}

// String renders the stats as the one-line summary the CLIs print under
// -v. Stage order is sorted for deterministic output.
//
//lint:ignore obsspan string formatting of a small struct; no pipeline work
func (s CacheStats) String() string {
	names := make([]string, 0, len(s.Stages))
	for n := range s.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	line := fmt.Sprintf("engine cache: %d hits / %d misses, %d entries, %s",
		s.Hits, s.Misses, s.Entries, formatBytes(s.Bytes))
	if len(names) > 0 {
		line += " ("
		for i, n := range names {
			if i > 0 {
				line += ", "
			}
			line += fmt.Sprintf("%s %d/%d", n, s.Stages[n].Hits, s.Stages[n].Misses)
		}
		line += ")"
	}
	return line
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// addStage accumulates per-stage hit/miss deltas (also feeding the
// process-wide metrics registry).
func (e *Engine) addStage(stage string, hits, misses int64) {
	if hits != 0 {
		mEngineHits.With(stage).Add(hits)
	}
	if misses != 0 {
		mEngineMisses.With(stage).Add(misses)
	}
	e.mu.Lock()
	st := e.stages[stage]
	if st == nil {
		st = &StageCacheStats{}
		e.stages[stage] = st
	}
	st.Hits += hits
	st.Misses += misses
	e.mu.Unlock()
}

// lookup fetches a cached artifact and refreshes its recency.
func (e *Engine) lookup(key string) (any, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.entries[key]
	if !ok {
		return nil, false
	}
	e.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// store inserts an artifact and evicts least-recently-used entries past
// the budget. Artifacts larger than the whole budget are not cached.
func (e *Engine) store(stage, key string, val any) {
	cost := artifactCost(val)
	if cost > e.budget {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.entries[key]; ok { // racing computation of the same key
		e.lru.MoveToFront(el)
		return
	}
	e.entries[key] = e.lru.PushFront(&cacheEntry{key: key, stage: stage, val: val, cost: cost})
	e.used += cost
	e.evictLocked()
}

// charge adds bytes to the resident cost of the entry under key, if that
// entry still holds val, and evicts past the budget. Fit artifacts call
// it when their encoding memo fills, so memoized bytes count against the
// budget and leave with the entry.
func (e *Engine) charge(key string, val any, bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.entries[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if ent.val != val {
		return
	}
	ent.cost += bytes
	e.used += bytes
	e.evictLocked()
}

// evictLocked drops least-recently-used entries until the cache fits its
// budget. e.mu must be held.
func (e *Engine) evictLocked() {
	for e.used > e.budget {
		back := e.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		e.lru.Remove(back)
		delete(e.entries, ent.key)
		e.used -= ent.cost
	}
}

// runStage executes one pipeline stage through the artifact cache: a
// hit returns the cached artifact under an engine.<stage> span with
// cache=hit; a miss runs the stage under the same span with cache=miss.
// A disabled cache (budget ≤ 0) or an installed fault injector bypasses
// the cache (cache=bypass, no hit/miss counting), so fault plans hit
// real computations.
func (e *Engine) runStage(ctx context.Context, p *pipeline, sg stage) (any, error) {
	key := sg.key(p)
	cacheable := e.budget > 0 && !robust.InjectionActive()
	mode := "bypass"
	if cacheable {
		if v, ok := e.lookup(key); ok {
			e.addStage(sg.name, 1, 0)
			_, sp := obs.Start(ctx, "engine."+sg.name, obs.Str("cache", "hit"))
			sp.End()
			return v, nil
		}
		e.addStage(sg.name, 0, 1)
		mode = "miss"
	}
	sctx, sp := obs.Start(ctx, "engine."+sg.name, obs.Str("cache", mode))
	defer sp.End()
	v, err := sg.run(sctx, p)
	if err != nil {
		return nil, err
	}
	if cacheable {
		e.store(sg.name, key, v)
	}
	return v, nil
}

// artifactCost approximates an artifact's resident payload in bytes for
// the cache budget. Estimates only need to be proportionate: D* samples
// dominate, domain/threshold maps are next, rankings are noise.
func artifactCost(v any) int64 {
	switch a := v.(type) {
	case *forestStats:
		c := int64(len(a.importance)+len(a.used))*8 + 256
		for _, t := range a.thresholds {
			c += int64(len(t))*8 + 48
		}
		return c
	case []int:
		return int64(len(a))*8 + 64
	case *domainsArtifact:
		c := int64(len(a.features))*8 + 256
		if a.domains != nil {
			c += int64(len(a.domains.Fill)) * 8
			for _, pts := range a.domains.Points {
				c += int64(len(pts))*8 + 48
			}
			c += int64(len(a.domains.Ranges)) * 64
		}
		return c
	case *sampleArtifact:
		var c int64 = 256
		for _, ds := range []*dataset.Dataset{a.train, a.test} {
			if ds == nil || len(ds.X) == 0 {
				continue
			}
			c += int64(len(ds.X)) * int64(len(ds.X[0])+1) * 8
		}
		return c
	case []featsel.Pair:
		return int64(len(a))*24 + 64
	case *fitArtifact:
		return a.cost()
	default:
		return 1024
	}
}

// Package par is GEF's deterministic parallel runtime. Every stage of
// the pipeline — forest labeling of D*, the GAM's XᵀWX accumulation,
// P-IRLS reweighting, GBDT histogram building, per-instance TreeSHAP —
// is embarrassingly parallel over rows or features, and all of it
// funnels through the two primitives here
// (the geflint `rawgo` analyzer enforces that no other package spawns
// goroutines directly).
//
// # Determinism contract
//
// Results are bitwise identical at any worker count, including
// workers=1. Two rules make this hold:
//
//  1. Fixed chunk boundaries. The index range [0, n) is split into a
//     chunk count that depends only on n and the caller-supplied chunk
//     hint — never on the worker count or on runtime load. Chunk c
//     covers [c·n/chunks, (c+1)·n/chunks).
//  2. Ordered reduction. MapReduce folds the per-chunk partial results
//     in ascending chunk order, whatever order the chunks finished in.
//     Floating-point accumulation order is therefore a pure function of
//     (n, chunks), not of scheduling.
//
// Chunks are claimed dynamically (an atomic cursor), which is safe
// because chunk *assignment* never influences results — only chunk
// *boundaries* and *reduction order* do, and both are fixed.
//
// # Scheduling
//
// There is no persistent pool. A bounded process-wide helper-token
// budget (Workers()−1 tokens) caps the number of extra goroutines alive
// across all concurrent For calls; the calling goroutine always works
// too. Nested calls — a parallel grid search whose per-fold training
// itself calls For — degrade gracefully: when no tokens are free the
// inner call runs its chunks inline, in ascending order, which by the
// contract above is bitwise identical to running them in parallel.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"gef/internal/obs"
)

// DefaultChunks is the chunk count used when callers pass chunks <= 0.
// It is a fixed constant — independent of GOMAXPROCS and SetWorkers —
// because chunk boundaries feed floating-point reduction order. 32
// chunks keep up to 32 workers busy while bounding per-call partial
// state.
const DefaultChunks = 32

// Metrics instruments (hoisted; see internal/obs). Chunk counts are
// labeled by the calling site — the name of the span carried by ctx —
// so par.chunks{site="shap.explain"} separates the SHAP hot path from
// sampling fan-outs. Calls with no live span land on site="untraced".
var (
	mForCalls  = obs.Metrics().Counter("par.for_calls")
	mChunks    = obs.Metrics().CounterVec("par.chunks", "site")
	mInline    = obs.Metrics().Counter("par.inline_calls")
	mGoroutine = obs.Metrics().Counter("par.helpers_spawned")
	gWorkers   = obs.Metrics().Gauge("par.workers")
)

// site resolves the metrics label for a For call from the span in ctx.
func site(ctx context.Context) string {
	if name := obs.FromContext(ctx).Name(); name != "" {
		return name
	}
	return "untraced"
}

// configured holds the worker count set by SetWorkers; 0 means "use
// GOMAXPROCS at call time".
var configured atomic.Int64

func init() { gWorkers.Set(float64(Workers())) }

// SetWorkers fixes the worker count used by For and MapReduce. n <= 0
// restores the default (GOMAXPROCS). The setting is process-wide — it
// is the CLIs' -workers flag — and changing it never changes results,
// only how many goroutines compute them.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	configured.Store(int64(n))
	gWorkers.Set(float64(Workers()))
}

// Workers returns the effective worker count: the SetWorkers value if
// set, otherwise GOMAXPROCS.
func Workers() int {
	if w := configured.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// helperTokens counts extra goroutines currently alive across all For
// calls; it is capped at Workers()−1 so total active workers (helpers
// plus the calling goroutines) track the configured parallelism.
var helperTokens atomic.Int64

func acquireHelper() bool {
	limit := int64(Workers() - 1)
	for {
		cur := helperTokens.Load()
		if cur >= limit {
			return false
		}
		if helperTokens.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helperTokens.Add(-1) }

// chunkCount resolves the caller's chunk hint: <= 0 selects
// DefaultChunks, and the count never exceeds n. The result depends only
// on (n, chunks).
func chunkCount(n, chunks int) int {
	if chunks <= 0 {
		chunks = DefaultChunks
	}
	if chunks > n {
		chunks = n
	}
	return chunks
}

// For runs body over the index range [0, n) split into the fixed chunk
// grid described in the package comment. body(c, lo, hi) processes
// half-open [lo, hi) and must only write state owned by that range (or
// by chunk index c). Bodies run concurrently on up to Workers()
// goroutines; with one worker (or no free helper tokens) chunks run
// inline in ascending order, which produces identical results.
//
// Cancellation: when ctx is canceled no new chunks are started and For
// returns ctx.Err(); chunks already running finish. A caller seeing a
// non-nil error must treat the outputs as partial and discard them.
func For(ctx context.Context, n, chunks int, body func(chunk, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	chunks = chunkCount(n, chunks)
	mForCalls.Inc()
	mChunks.With(site(ctx)).Add(int64(chunks))

	helpers := 0
	if chunks > 1 {
		for helpers < chunks-1 && acquireHelper() {
			helpers++
		}
	}
	if helpers == 0 {
		mInline.Inc()
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			body(c, c*n/chunks, (c+1)*n/chunks)
		}
		return ctx.Err()
	}
	mGoroutine.Add(int64(helpers))

	var (
		next     atomic.Int64
		panicked atomic.Pointer[panicBox]
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicBox{val: r})
			}
		}()
		for panicked.Load() == nil && ctx.Err() == nil {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			body(c, c*n/chunks, (c+1)*n/chunks)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer wg.Done()
			defer releaseHelper()
			run()
		}()
	}
	run()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
	return ctx.Err()
}

// panicBox carries the first body panic across goroutines so For can
// re-panic it on the calling goroutine.
type panicBox struct{ val any }

// MapReduce maps the fixed chunk grid over [0, n) and folds the
// per-chunk results in ascending chunk order: the return value is
// reduce(...reduce(reduce(m₀, m₁), m₂)..., m_{chunks−1}) where m_c =
// mapf(c, lo_c, hi_c). Because both the chunk boundaries and the fold
// order are fixed, the result is bitwise identical at any worker count.
// reduce may mutate and return its first argument.
//
// On cancellation the zero T and ctx.Err() are returned.
func MapReduce[T any](ctx context.Context, n, chunks int, mapf func(chunk, lo, hi int) T, reduce func(a, b T) T) (T, error) {
	var zero T
	if n <= 0 {
		return zero, ctx.Err()
	}
	chunks = chunkCount(n, chunks)
	partial := make([]T, chunks)
	if err := For(ctx, n, chunks, func(c, lo, hi int) {
		partial[c] = mapf(c, lo, hi)
	}); err != nil {
		return zero, err
	}
	acc := partial[0]
	for c := 1; c < chunks; c++ {
		acc = reduce(acc, partial[c])
	}
	return acc, nil
}

// SplitSeed derives an independent, deterministic child seed for stream
// index i from a base seed, via one splitmix64 round. Parallel or
// reordered consumers (boosting iterations, RF trees) each seed their
// own rand.Rand from SplitSeed(seed, i) so no draw count in one stream
// can perturb another — the fix for sampling streams that previously
// shared one sequential source.
func SplitSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

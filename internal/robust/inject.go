package robust

import (
	"math"
	"sync"
	"sync/atomic"
)

// Site names one fault-injection point in the pipeline. Each site
// documents the meaning of the (key, level) pair its callers pass to
// Fire; plans are written against those semantics.
type Site string

// Registered injection sites. Sites gives the full list for harnesses
// that sweep every site.
const (
	// SiteCholesky forces penalized-system factorization failures in
	// gam. key = fit ordinal (Ordinal(ScopeFit)); level = the extra
	// ridge scale of the current recovery-ladder attempt, so
	// FailBelow(…, r) fails attempts with ridge < r and lets the
	// escalation rescue the fit.
	SiteCholesky Site = "gam.cholesky"
	// SiteIRLS forces P-IRLS divergence in the logit fit: a firing
	// penalized-deviance evaluation reports an increase over the
	// previous iterate (iteration 0 has none and never fires).
	// key = fit ordinal; level = iteration + 0.25·halvings, so
	// FailBelow(…, it+0.1) poisons the initial step of iterations < it
	// but lets the step-halved re-evaluations through; FailAlways makes
	// iteration 1 diverge, which fails the fit with ErrNumerical.
	SiteIRLS Site = "gam.pirls"
	// SiteDomains forces sampling-domain collapse: the firing feature's
	// domain construction fails with ErrDegenerate. key = feature
	// index; level = 0.
	SiteDomains Site = "sampling.domains"
	// SiteCancel cancels the pipeline context mid-stage. key = core
	// stage index (0 = feature selection, 1 = domains, 2 = D*
	// generation, 3 = interaction ranking, 4 = GAM fit); level = 0.
	SiteCancel Site = "core.cancel"
	// SiteAdmit forces the explanation server's admission controller to
	// treat the queue as full, shedding the request with 429. key = −1
	// (any request); level = the queue depth observed at admission, so
	// FailBelow(…, d) sheds only while fewer than d requests wait.
	SiteAdmit Site = "serve.admit"
	// SiteCoalesce poisons a coalesced computation: the single-flight
	// leader's work fails with ErrNumerical, and every waiter sharing
	// the key must surface the same typed failure (one 500 per waiter,
	// never a hang). key = −1; level = the number of waiters already
	// joined when the leader started.
	SiteCoalesce Site = "serve.coalesce"
	// SiteDrain collapses the server's drain deadline to "now": a drain
	// triggered while requests are in flight times them out immediately
	// with 504 instead of letting them finish. key = −1; level = 0.
	SiteDrain Site = "serve.drain"
)

// Sites lists every registered injection site.
var Sites = []Site{SiteCholesky, SiteIRLS, SiteDomains, SiteCancel, SiteAdmit, SiteCoalesce, SiteDrain}

// ScopeFit is the ordinal scope counting gam fit invocations; it keys
// SiteCholesky and SiteIRLS plans (fit 0 is the full spec, later
// ordinals are degradation-ladder refits).
const ScopeFit = "gam.fit"

// Fault is one injection rule. A rule fires when its Site matches, its
// Key matches the call's key (Key −1 matches every key), the call's
// level is strictly below Below, and — when Prob ∈ (0,1) — a
// deterministic hash of (seed, site, key) falls under Prob. Decisions
// are pure functions of the plan and the call's (site, key, level), so
// an injected run is bitwise reproducible at any worker count.
type Fault struct {
	Site  Site
	Key   int
	Below float64 // exclusive upper bound on level; +Inf = always
	Prob  float64 // 0 = unconditional; else deterministic probability
}

// FailAlways builds a rule that fires on every matching (site, key).
func FailAlways(site Site, key int) Fault {
	return Fault{Site: site, Key: key, Below: inf}
}

// FailBelow builds a rule that fires while the call's level is strictly
// below threshold — the escalation knob: recovery attempts above the
// threshold succeed.
func FailBelow(site Site, key int, threshold float64) Fault {
	return Fault{Site: site, Key: key, Below: threshold}
}

// FailProb builds a rule that fires for a deterministic pseudo-random
// Prob-fraction of keys at the site (decided by hashing the injector
// seed with the site and key, never by call order).
func FailProb(site Site, key int, prob float64) Fault {
	return Fault{Site: site, Key: key, Below: inf, Prob: prob}
}

var inf = math.Inf(1)

// Injector evaluates a fault plan. The zero value is unusable; build
// with NewInjector. An Injector is safe for concurrent use: decisions
// are pure reads, and the per-scope ordinal counters are mutex-guarded.
type Injector struct {
	seed   int64
	faults map[Site][]Fault

	mu       sync.Mutex
	ordinals map[string]int
}

// NewInjector builds an injector for the given plan. The seed only
// drives FailProb decisions; deterministic rules ignore it.
func NewInjector(seed int64, faults ...Fault) *Injector {
	in := &Injector{
		seed:     seed,
		faults:   make(map[Site][]Fault),
		ordinals: make(map[string]int),
	}
	for _, f := range faults {
		in.faults[f.Site] = append(in.faults[f.Site], f)
	}
	return in
}

// fire reports whether any rule matches (site, key, level).
func (in *Injector) fire(site Site, key int, level float64) bool {
	for _, f := range in.faults[site] {
		if f.Key != -1 && f.Key != key {
			continue
		}
		if !(level < f.Below) {
			continue
		}
		if f.Prob > 0 && hashUnit(in.seed, site, key) >= f.Prob {
			continue
		}
		return true
	}
	return false
}

// ordinal returns the next 0-based ordinal for scope.
func (in *Injector) ordinal(scope string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.ordinals[scope]
	in.ordinals[scope] = n + 1
	return n
}

// hashUnit maps (seed, site, key) to [0,1) with a splitmix64-style
// avalanche — pure, so probabilistic plans are order-independent.
func hashUnit(seed int64, site Site, key int) float64 {
	z := uint64(seed) ^ (uint64(key+1) * 0x9e3779b97f4a7c15)
	for i := 0; i < len(site); i++ {
		z = (z ^ uint64(site[i])) * 0x100000001b3
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// active is the process-wide injector; nil (the default) means
// production mode, where Fire is a single atomic load returning false.
var active atomic.Pointer[Injector]

// SetInjector installs (or, with nil, removes) the process-wide fault
// injector. Installing resets the injector's ordinal scopes, so plans
// keyed by fit ordinal count from the moment of installation. Tests
// must restore the nil injector when done.
func SetInjector(in *Injector) { active.Store(in) }

// InjectionActive reports whether a fault injector is installed.
// Subsystems that would mask injected faults behind memoized state (the
// core engine's artifact cache) consult it to bypass their caches, so a
// fault plan always exercises the real computation it targets.
func InjectionActive() bool { return active.Load() != nil }

// Fire reports whether the active plan injects a fault at (site, key,
// level). Production fast path: no injector installed → one atomic
// load, no allocation, always false. A true return increments the
// robust.injected_faults counter.
func Fire(site Site, key int, level float64) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	if !in.fire(site, key, level) {
		return false
	}
	mInjected.Inc()
	return true
}

// Ordinal returns the next 0-based ordinal for scope under the active
// injector, or 0 when injection is off (the value is only consumed by
// Fire, which is then inert anyway).
func Ordinal(scope string) int {
	in := active.Load()
	if in == nil {
		return 0
	}
	return in.ordinal(scope)
}

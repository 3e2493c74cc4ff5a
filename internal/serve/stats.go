package serve

import (
	"net/http"
	"sort"
	"time"

	"gef/internal/core"
)

// tenantHeader names the request header carrying the tenant identity.
// Absent or empty → "anon". Tenancy here is accounting, not isolation:
// every tenant shares one engine cache on purpose (a popular forest
// warmed by one tenant serves the next one from cache), and the
// per-tenant ledgers make that sharing auditable.
const tenantHeader = "X-Tenant"

// otherTenant aggregates tenants past Options.MaxTenants, so a client
// spraying random tenant names cannot grow the accounting map without
// bound.
const otherTenant = "other"

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return "anon"
}

// TenantStats is one tenant's serving ledger. Engine hits/misses are
// cache-stat deltas observed around computations led on the tenant's
// behalf; a coalesced waiter inherits no engine delta (its work was
// charged to the leading tenant), which is exactly what CoalesceHits
// records.
type TenantStats struct {
	Requests      int64 `json:"requests"`
	Shed          int64 `json:"shed"`
	Errors        int64 `json:"errors"`
	CoalesceHits  int64 `json:"coalesce_hits"`
	CoalesceLeads int64 `json:"coalesce_leads"`
	EngineHits    int64 `json:"engine_hits"`
	EngineMisses  int64 `json:"engine_misses"`
	// Families counts /v1/explain requests per explainer family (after
	// normalization, so an omitted family counts as "gam"). Requests
	// rejected before validation are not counted.
	Families map[string]int64 `json:"families,omitempty"`
}

// family bumps the tenant's per-family request counter. Callers hold
// the server mutex (via tenantStat).
func (ts *TenantStats) family(name string) {
	if ts.Families == nil {
		ts.Families = make(map[string]int64)
	}
	ts.Families[name]++
}

// cloneFamilies deep-copies the family map so Stats snapshots do not
// alias the live ledger.
func (ts TenantStats) cloneFamilies() map[string]int64 {
	if ts.Families == nil {
		return nil
	}
	out := make(map[string]int64, len(ts.Families))
	for k, v := range ts.Families {
		out[k] = v
	}
	return out
}

// Stats is the /v1/stats payload.
type Stats struct {
	UptimeS       float64 `json:"uptime_s"`
	Draining      bool    `json:"draining"`
	Forests       int     `json:"forests"`
	Admitted      int64   `json:"admitted"`
	InFlight      int     `json:"in_flight"`
	Requests      int64   `json:"requests"`
	Shed          int64   `json:"shed"`
	Errors        int64   `json:"errors"`
	CoalesceHits  int64   `json:"coalesce_hits"`
	CoalesceLeads int64   `json:"coalesce_leads"`
	// Families aggregates per-family explain counts over all tenants.
	Families map[string]int64       `json:"families,omitempty"`
	Engine   core.CacheStats        `json:"engine"`
	Tenants  map[string]TenantStats `json:"tenants"`
}

// tenantStat applies f to the named tenant's ledger, creating it on
// first sight and folding overflow tenants into otherTenant.
func (s *Server) tenantStat(name string, f func(*TenantStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= s.opt.MaxTenants {
			name = otherTenant
			ts = s.tenants[name]
		}
		if ts == nil {
			ts = &TenantStats{}
			s.tenants[name] = ts
		}
	}
	f(ts)
}

// accountEngine charges the engine-cache delta of a led computation to
// the leading tenant. Under concurrent leaders the attribution is
// approximate — deltas of overlapping computations interleave — but the
// totals are exact, and per-tenant numbers are exact whenever requests
// for a tenant are serialized (as they are in tests).
func (s *Server) accountEngine(tenant string, before, after core.CacheStats) {
	dh, dm := after.Hits-before.Hits, after.Misses-before.Misses
	if dh == 0 && dm == 0 {
		return
	}
	s.tenantStat(tenant, func(ts *TenantStats) {
		ts.EngineHits += dh
		ts.EngineMisses += dm
	})
}

// Stats snapshots the serving ledgers. Totals are summed over tenants
// in sorted key order (deterministic output byte-for-byte aside from
// uptime).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := Stats{
		UptimeS:  time.Since(s.started).Seconds(),
		Forests:  len(s.forests),
		Admitted: s.adm.admitted.Load(),
		InFlight: len(s.adm.tokens),
		Tenants:  make(map[string]TenantStats, len(names)),
	}
	for _, name := range names {
		ts := *s.tenants[name]
		ts.Families = ts.cloneFamilies()
		out.Tenants[name] = ts
		out.Requests += ts.Requests
		out.Shed += ts.Shed
		out.Errors += ts.Errors
		out.CoalesceHits += ts.CoalesceHits
		out.CoalesceLeads += ts.CoalesceLeads
		for fam, n := range ts.Families {
			if out.Families == nil {
				out.Families = make(map[string]int64)
			}
			out.Families[fam] += n
		}
	}
	s.mu.Unlock()
	out.Draining = s.Draining()
	out.Engine = s.eng.CacheStats()
	return out
}

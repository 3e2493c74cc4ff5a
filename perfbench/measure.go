package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"gef/internal/forest"
	"gef/internal/obs"
)

// phase is the record of one measured phase: a closed loop of ops on one
// set-up session.
type phase struct {
	attempted, failed int
	lats              []float64 // ms, successful ops
	wall, cpu         time.Duration
	allocBytes        uint64
	gcCycles          uint32
	r2sum             float64
	r2n               int
	firstErr          error
	// Per-kind counts and response bytes, for per-op layer metrics.
	kinds     map[string]int
	respBytes map[string]int64
	// shares counts ops by the properties an optimisation might key on.
	shares map[string]int
	// classLats holds successful latencies (ms) by op class.
	classLats map[string][]float64
	// Per plan block, timed one by one: succeeded ops per second and CPU
	// ms per op.
	blockRates, blockCPU []float64
}

// cpuTime is the process's user+sys CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHits is the engine's sample-stage hit counter: an explain that
// hits it reused every upstream artifact (the D* sample embeds the
// domains key, which embeds the featsel key).
var sampleHits = obs.Metrics().Counter(`engine.cache_hits{stage="sample"}`)

// runPhase drives ops (cyclically, from plan index start, a multiple of
// block) through s in whole plan blocks of the given number of ops: a
// block holds every op class in its exact share, so blocks are
// comparable, and each is timed on its own. The phase ends at the first
// block boundary after dur once minOps ops succeeded, and at 2·dur in any
// case. between, when not nil, runs after every completed block but the
// last, with the count of blocks so far; its time counts neither in the
// blocks nor in the phase.
func runPhase(ctx context.Context, s session, models []*model, ops []op, start int, dur time.Duration, minOps, block int, between func(blocks int)) *phase {
	p := &phase{kinds: map[string]int{}, respBytes: map[string]int64{}, shares: map[string]int{},
		classLats: map[string][]float64{}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	var pausedWall, pausedCPU time.Duration
	wc, wt, wOK := c0, t0, 0
	for i := start; ; i++ {
		if n := i - start; n > 0 && n%block == 0 {
			c, t := cpuTime(), time.Now()
			p.blockRates = append(p.blockRates, float64(len(p.lats)-wOK)/t.Sub(wt).Seconds())
			p.blockCPU = append(p.blockCPU, float64(c-wc)/float64(time.Millisecond)/float64(block))
			el := t.Sub(t0) - pausedWall
			if (el >= dur && len(p.lats) >= minOps) || el >= 2*dur {
				break
			}
			if between != nil {
				between(len(p.blockRates))
				c2, t2 := cpuTime(), time.Now()
				pausedWall, pausedCPU = pausedWall+t2.Sub(t), pausedCPU+c2-c
				c, t = c2, t2
			}
			wc, wt, wOK = c, t, len(p.lats)
		}
		o := ops[i%len(ops)]
		h0 := sampleHits.Value()
		out := s.do(ctx, o)
		p.attempted++
		p.kinds[o.Kind]++
		p.respBytes[o.Kind] += int64(out.bytes)
		if out.err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = out.err
			}
			continue
		}
		ms := float64(out.lat) / float64(time.Millisecond)
		p.lats = append(p.lats, ms)
		class := o.Kind + "/" + models[o.Model].name
		if o.Family != "" {
			class += "/" + o.Family
		}
		p.classLats[class] = append(p.classLats[class], ms)
		if out.hasR2 {
			p.r2sum += out.r2
			p.r2n++
		}
		switch o.Kind {
		case "shap":
			p.shares["shap"]++
		default:
			if sampleHits.Value() > h0 {
				p.shares["upstream_hit"]++
			}
			if o.Family == "gam" {
				p.shares["gam_fit"]++
			} else {
				p.shares["cached_fit_family"]++
			}
			if models[o.Model].f.Objective == forest.BinaryLogistic {
				p.shares["logit"]++
			}
		}
	}
	p.wall, p.cpu = time.Since(t0)-pausedWall, cpuTime()-c0-pausedCPU
	runtime.ReadMemStats(&m1)
	p.allocBytes, p.gcCycles = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	return p
}

// throughput is the median over the phase's blocks of succeeded ops per
// second: a block that a neighbour on the host slowed moves it less than
// it moves the phase's mean.
func (p *phase) throughput() float64 {
	return median(append([]float64(nil), p.blockRates...))
}

// cpuMsPerOp is the median over the phase's blocks of CPU ms per op.
func (p *phase) cpuMsPerOp() float64 {
	return median(append([]float64(nil), p.blockCPU...))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapLiveMB is the heap in use after a forced GC.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

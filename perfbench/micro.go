package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/lru"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/sim"
)

// The layer microbenchmarks drive one module at a time from outside,
// with inputs recorded from the workload's own traced replay. A layer the
// workload never reaches reads 0.

// microTime is how long each microbenchmark repeats its inputs.
const microTime = 100 * time.Millisecond

type micro struct {
	evalNs, engineNs, allocsPerRun, keyNs, keyBytes, lruGetNs, lruAddNs float64
}

func runMicro(seed int64, st *replayStats, rep *serveReplica) micro {
	var m micro
	if len(st.games) > 0 {
		m.evalNs = evalNs(st.games)
	}
	if len(st.sims) > 0 {
		m.allocsPerRun = allocsPerRun(st.sims)
		m.engineNs = engineNs(seed)
	}
	if rep != nil && len(rep.reqs) > 0 {
		m.keyNs, m.keyBytes = keyNs(rep.reqs)
		m.lruGetNs, m.lruAddNs = lruNs(rep.keys)
	}
	return m
}

// evalPoint is one model evaluation a solve made.
type evalPoint struct {
	m     macmodel.Model
	x     opt.Vector
	delay bool
}

// recordingModel records every evaluation point of a solve.
type recordingModel struct {
	macmodel.Model
	mu  *sync.Mutex
	pts *[]evalPoint
}

func (m recordingModel) keep(x opt.Vector, delay bool) {
	m.mu.Lock()
	*m.pts = append(*m.pts, evalPoint{m.Model, x.Clone(), delay})
	m.mu.Unlock()
}

func (m recordingModel) Energy(x opt.Vector) float64 { m.keep(x, false); return m.Model.Energy(x) }
func (m recordingModel) Delay(x opt.Vector) float64  { m.keep(x, true); return m.Model.Delay(x) }

// evalNs re-solves the recorded games to collect their evaluation points,
// then times the bare models on those points.
func evalNs(games []game) float64 {
	var mu sync.Mutex
	var pts []evalPoint
	for _, g := range games {
		core.OptimizeRelaxed(recordingModel{g.model, &mu, &pts}, g.req)
	}
	if len(pts) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < microTime {
		for _, p := range pts {
			if p.delay {
				sink += p.m.Delay(p.x)
			} else {
				sink += p.m.Energy(p.x)
			}
		}
		calls += len(pts)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// allocsPerRun replays recorded simulations one after another and counts
// heap allocations per run.
func allocsPerRun(cfgs []sim.Config) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cfg := range cfgs {
		sim.RunContext(context.Background(), cfg)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(cfgs))
}

// engineNs times the event engine alone on two seeded timer scripts and
// returns nanoseconds per processed event over both.
func engineNs(seed int64) float64 {
	var ns, events float64
	for _, script := range []func(*sim.Engine, *rng){periodicScript, adversarialScript} {
		eng := sim.NewEngine()
		script(eng, newRNG(seed, 10))
		start := time.Now()
		eng.Run(200)
		ns += float64(time.Since(start).Nanoseconds())
		events += float64(eng.Processed())
	}
	return ratio(ns, events)
}

// periodicScript arms duty-cycle-like timers: each re-arms itself with
// its own period and a little jitter.
func periodicScript(eng *sim.Engine, r *rng) {
	var fire func(any)
	fire = func(a any) {
		period := *a.(*float64)
		eng.AfterCall(period*(0.99+0.02*r.float()), fire, a)
	}
	for i := 0; i < 256; i++ {
		period := 0.05 + 0.1*r.float()
		eng.AfterCall(r.float()*period, fire, &period)
	}
}

// adversarialScript mixes what strains a timing wheel: near-term
// chains, same-instant pile-ups, events beyond the wheel's one-second
// horizon, and cancel-and-re-arm.
func adversarialScript(eng *sim.Engine, r *rng) {
	leaf := func(any) {}
	var fire func(any)
	fire = func(any) {
		switch r.intn(4) {
		case 0:
			eng.AfterCall(r.float()*5e-3, fire, nil)
		case 1:
			for i := 0; i < 3; i++ {
				eng.AfterCall(0, leaf, nil)
			}
			eng.AfterCall(r.float()*1e-3, fire, nil)
		case 2:
			eng.AfterCall(1+30*r.float(), fire, nil)
		case 3:
			t := eng.AfterCall(r.float()*2, fire, nil)
			t.Cancel()
			eng.AfterCall(r.float()*2, fire, nil)
		}
	}
	for i := 0; i < 4096; i++ {
		eng.AfterCall(r.float()*10, fire, nil)
	}
}

// keyNs times jsonwire.CacheKey on the recorded decoded requests and
// returns nanoseconds per key and the mean key length.
func keyNs(reqs []keyReq) (ns, size float64) {
	var bytes, calls int
	start := time.Now()
	for time.Since(start) < microTime {
		for _, q := range reqs {
			k, _ := jsonwire.CacheKey(q.op, q.v)
			bytes += len(k)
		}
		calls += len(reqs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls), float64(bytes) / float64(calls)
}

// lruNs replays the recorded response-cache accesses through a fresh
// cache of the serve layer's size, timing each access less the cost of
// reading the clock.
func lruNs(ops []keyOp) (getNs, addNs float64) {
	clock := clockCost()
	value := []byte("{}\n")
	var gets, adds, getT, addT float64
	for start := time.Now(); time.Since(start) < microTime; {
		c := lru.New(256)
		for _, op := range ops {
			t := time.Now()
			if op.add {
				c.Add(op.key, value)
				addT += float64(time.Since(t).Nanoseconds()) - clock
				adds++
			} else {
				c.Get(op.key)
				getT += float64(time.Since(t).Nanoseconds()) - clock
				gets++
			}
		}
	}
	return ratio(getT, gets), ratio(addT, adds)
}

// clockCost is the median time of an empty pair of clock reads.
func clockCost() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// sink keeps the compiler from dropping benchmarked results.
var sink float64

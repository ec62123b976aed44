package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/serve"
)

// The optimize-cold workload: a closed loop of two callers, each sending
// its next distinct relaxed /v1/optimize request only after the last one
// answered. Every request misses both the response cache and the
// Client's result cache, so the solver does nearly all the work and the
// caches see only inserts.
const (
	optimizeClients = 2
	// digestPrefix responses, in request order, hash to optimizeDigest at
	// goldenSeed.
	digestPrefix   = 64
	optimizeDigest = "42563a38c1be646a"
	// warmPerProtocol warm-up solves per protocol make set-up long enough
	// to time steadily.
	warmPerProtocol = 16
)

type optimizeCold struct {
	srv    *serve.Server
	h      http.Handler
	seed   int64
	stream optimizeStream
	served digests // response digests by request index, kept for a traced replay
}

func setupOptimizeCold(_ context.Context, c *config) (workload, error) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, err
	}
	o := &optimizeCold{srv: srv, h: srv.Handler(), seed: c.seed, stream: newOptimizeStream(c.seed)}
	if err := warmOptimize(func(body []byte) (int, error) {
		rec := send(o.h, http.MethodPost, "/v1/optimize", body)
		return rec.Code, nil
	}); err != nil {
		srv.Close()
		return nil, err
	}
	return o, nil
}

// warmOptimize sends warmPerProtocol requests per protocol with delay
// bounds above the request grid's, so no timed request can hit them.
func warmOptimize(send func(body []byte) (int, error)) error {
	for _, p := range edmac.Protocols() {
		for i := 0; i < warmPerProtocol; i++ {
			delay := delayFloor + float64(gridDelays)/1e3 + 1 + 0.25*float64(i)
			body, _ := json.Marshal(edmac.OptimizeRequest{Protocol: p,
				Requirements: edmac.Requirements{EnergyBudget: 0.05, MaxDelay: delay}, Relaxed: true})
			if code, err := send(body); err != nil || code != http.StatusOK {
				return fmt.Errorf("optimize warm-up: status %d, %v", code, err)
			}
		}
	}
	return nil
}

func (o *optimizeCold) close() { o.srv.Close() }

func (o *optimizeCold) header() string {
	return fmt.Sprintf("closed loop, %d callers", optimizeClients)
}

// checkOptimize verifies one answer: a fresh solve whose bargain meets
// the delay bound.
func checkOptimize(ph *phase, req edmac.OptimizeRequest, code int, cache string, body []byte) bool {
	if code != http.StatusOK || cache != "MISS" {
		ph.fail("optimize: status %d, X-Cache %q: %s", code, cache, body)
		return false
	}
	var rep edmac.OptimizeReport
	if err := json.Unmarshal(body, &rep); err != nil {
		ph.fail("optimize: %v", err)
		return false
	}
	if d := rep.Result.Bargain.Delay; !(d <= req.Requirements.MaxDelay) {
		ph.fail("optimize: bargain delay %v exceeds max_delay %v", d, req.Requirements.MaxDelay)
		return false
	}
	return true
}

func (o *optimizeCold) measure(_ context.Context, d time.Duration, detail bool) (*phase, error) {
	ph := newPhase()
	before := healthz(o.h)
	prefix := make([][]byte, digestPrefix)
	ph.loopRun = closedLoop(optimizeClients, d, func(i int) func() bool {
		req := o.stream.request(i)
		body, _ := json.Marshal(req)
		rec := send(o.h, http.MethodPost, "/v1/optimize", body)
		return func() bool {
			data := rec.Body.Bytes()
			if i < digestPrefix {
				prefix[i] = data
			}
			if detail {
				o.served.put(i, data)
			}
			ph.count(rec.Header().Get("X-Cache"))
			return checkOptimize(ph, req, rec.Code, rec.Header().Get("X-Cache"), data)
		}
	})
	ph.keepRetainedHeap()
	if o.seed == goldenSeed && ph.attempted >= digestPrefix {
		if got := prefixDigest(prefix); got != optimizeDigest {
			ph.failN(digestPrefix, "optimize: first %d responses digest %s, want %s", digestPrefix, got, optimizeDigest)
		}
	}
	ph.serveCounters(before, healthz(o.h))
	return ph, nil
}

// prefixDigest hashes responses in request order.
func prefixDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (o *optimizeCold) replay(_ context.Context, d time.Duration, r replayer) (*phase, error) {
	rep, err := newServeReplica()
	if err != nil {
		return nil, err
	}
	defer rep.close()
	warm := replayer{tr: newTracer(), st: &replayStats{}}
	if err := warmOptimize(func(body []byte) (int, error) {
		_, _, err := rep.optimize(warm, noParent, -1, body)
		return http.StatusOK, err
	}); err != nil {
		return nil, err
	}
	ph := newPhase()
	ph.loopRun = closedLoop(optimizeClients, d, func(i int) func() bool {
		body := o.stream.body(i)
		root := r.tr.begin(rootSpan, noParent, int64(i))
		data, hit, err := rep.optimize(r, root, int64(i), body)
		r.tr.end(root)
		return func() bool {
			if err != nil || hit || !o.served.matches(i, data) {
				r.st.mismatches.Add(1)
				ph.fail("optimize replay %d: hit=%v err=%v", i, hit, err)
				return false
			}
			return true
		}
	})
	ph.replica = rep
	return ph, nil
}

// cacheCounts is what /healthz reports about both caches.
type cacheCounts struct {
	Response edmac.CacheStats `json:"response_cache"`
	Result   edmac.CacheStats `json:"result_cache"`
}

func healthz(h http.Handler) cacheCounts {
	var c cacheCounts
	rec := send(h, http.MethodGet, "/healthz", nil)
	_ = json.Unmarshal(rec.Body.Bytes(), &c) // zero counts if the shape ever changes
	return c
}

// serveCounters records the serve-side ratios of a phase from the
// server's own counters and the X-Cache answers it gave.
func (ph *phase) serveCounters(before, after cacheCounts) {
	delta := func(a, b edmac.CacheStats) edmac.CacheStats {
		return edmac.CacheStats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses}
	}
	ph.counters["lru.hit_ratio"] = cacheRatio(delta(before.Response, after.Response))
	ph.counters["client.cache_hit_ratio"] = cacheRatio(delta(before.Result, after.Result))
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.counters["serve.hit_share"] = ratio(float64(ph.xcache["HIT"]), float64(ph.attempted))
	ph.counters["serve.coalesced"] = float64(ph.xcache["COALESCED"])
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/jobs"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/lru"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/sim"
	"github.com/edmac-project/edmac/internal/topology"
)

// send calls the handler in process, with no socket: on loopback the
// connection would cost several times what the handler itself does on a
// cache hit and hide every change to the serve layer.
func send(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		panic(err) // paths are constants of this program
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// digests records response digests by request index, so a traced replay
// can prove it produced the bytes the program served.
type digests struct {
	mu sync.Mutex
	m  map[int]uint64
}

func (d *digests) put(i int, b []byte) {
	d.mu.Lock()
	if d.m == nil {
		d.m = map[int]uint64{}
	}
	d.m[i] = digest(b)
	d.mu.Unlock()
}

// matches reports whether b is what the program served for request i;
// requests the program never served have nothing to match.
func (d *digests) matches(i int, b []byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	want, ok := d.m[i]
	return !ok || want == digest(b)
}

// --- traced replay of the serve paths ---------------------------------

// keyOp is one response-cache access, kept for the LRU microbenchmark.
type keyOp struct {
	add bool
	key string
}

// keyReq is one decoded request as the cache key sees it, kept for the
// jsonwire microbenchmark.
type keyReq struct {
	op string
	v  any
}

const keepKeys = 20000

// serveReplica holds the state the handler keeps between requests — a
// response cache, the Client's result cache, a job store — rebuilt from
// the same constructors, so replayed requests see what real ones see.
type serveReplica struct {
	cache    *lru.Cache
	results  *lru.Cache
	store    *jobs.Store
	defaults edmac.Scenario
	env      macmodel.Env

	mu   sync.Mutex
	keys []keyOp
	reqs []keyReq
}

func newServeReplica() (*serveReplica, error) {
	store, err := jobs.New(jobs.Options{})
	if err != nil {
		return nil, err
	}
	s := edmac.DefaultScenario()
	env := macmodel.Default()
	// The Client stores the sampling rate as an interval and inverts it
	// back; doing the same keeps the model bit-identical.
	env.SampleRate = 1 / s.SampleInterval
	return &serveReplica{
		cache:   lru.New(edmac.DefaultCacheSize),
		results: lru.New(edmac.DefaultCacheSize),
		store:   store, defaults: s, env: env,
	}, nil
}

func (h *serveReplica) close() { h.store.Close() }

func (h *serveReplica) record(op string, v any, key string) {
	h.mu.Lock()
	if len(h.reqs) < keepKeys {
		h.reqs = append(h.reqs, keyReq{op, v})
	}
	h.mu.Unlock()
	h.recordKey(false, key)
}

func (h *serveReplica) recordKey(add bool, key string) {
	h.mu.Lock()
	if len(h.keys) < keepKeys {
		h.keys = append(h.keys, keyOp{add, key})
	}
	h.mu.Unlock()
}

// decodeStrict parses a request body the way the handler does, rejecting
// unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// lookup is the handler's front half: decode, canonical key, cache read.
func (h *serveReplica) lookup(r replayer, parent spanID, op int64, name string, body []byte, v any, keyOf func() any) (string, []byte, error) {
	var err error
	r.tr.do("serve.decode", parent, op, func() { err = decodeStrict(body, v) })
	if err != nil {
		return "", nil, err
	}
	kv := keyOf()
	var key string
	r.tr.do("jsonwire.key", parent, op, func() { key, _ = jsonwire.CacheKey(name, kv) })
	h.record(name, kv, key)
	var cached any
	var ok bool
	r.tr.do("lru.get", parent, op, func() { cached, ok = h.cache.Get(key) })
	if ok {
		return key, cached.([]byte), nil
	}
	return key, nil, nil
}

// respond is the handler's back half: encode the response and cache it.
func (h *serveReplica) respond(r replayer, parent spanID, op int64, key string, v any) ([]byte, error) {
	var data []byte
	var err error
	r.tr.do("serve.encode", parent, op, func() {
		data, err = json.Marshal(v)
		data = append(data, '\n')
	})
	if err != nil {
		return nil, err
	}
	r.tr.do("lru.add", parent, op, func() { h.cache.Add(key, data) })
	h.recordKey(true, key)
	return data, nil
}

// optimize replays POST /v1/optimize and reports whether it hit.
func (h *serveReplica) optimize(r replayer, parent spanID, op int64, body []byte) ([]byte, bool, error) {
	var req edmac.OptimizeRequest
	key, hit, err := h.lookup(r, parent, op, "optimize", body, &req, func() any { return req })
	if err != nil || hit != nil {
		return hit, hit != nil, err
	}
	id := r.tr.begin("client.optimize", parent, op)
	res, err := h.clientOptimize(r, id, op, req)
	r.tr.end(id)
	if err != nil {
		return nil, false, err
	}
	data, err := h.respond(r, parent, op, key, edmac.OptimizeReport{Result: res})
	return data, false, err
}

// clientOptimize replays Client.Optimize with its result cache.
func (h *serveReplica) clientOptimize(r replayer, parent spanID, op int64, req edmac.OptimizeRequest) (edmac.Result, error) {
	if req.Scenario != nil {
		return edmac.Result{}, fmt.Errorf("replay covers the default scenario only")
	}
	resolved := req
	resolved.Scenario = &h.defaults
	var key string
	r.tr.do("jsonwire.key", parent, op, func() { key, _ = jsonwire.CacheKey("optimize", resolved) })
	var cached any
	var ok bool
	r.tr.do("lru.get", parent, op, func() { cached, ok = h.results.Get(key) })
	if ok {
		return cloneResult(cached.(edmac.Result)), nil
	}
	creq := core.Requirements{EnergyBudget: req.Requirements.EnergyBudget, MaxDelay: req.Requirements.MaxDelay}
	t, err := r.solve(parent, op, string(req.Protocol), h.env, creq)
	if err != nil {
		return edmac.Result{}, err
	}
	res := resultOf(req.Protocol, req.Requirements, t)
	r.tr.do("lru.add", parent, op, func() { h.results.Add(key, cloneResult(res)) })
	return res, nil
}

func resultOf(p edmac.Protocol, req edmac.Requirements, t core.Tradeoff) edmac.Result {
	point := func(pt core.OperatingPoint) edmac.OperatingPoint {
		return edmac.OperatingPoint{Params: []float64(pt.Params.Clone()), Energy: pt.Energy, Delay: pt.Delay}
	}
	return edmac.Result{
		Protocol: p, Requirements: req,
		EnergyOptimal: point(t.EnergyOptimal), DelayOptimal: point(t.DelayOptimal),
		WorstEnergy: t.WorstEnergy, WorstDelay: t.WorstDelay,
		Bargain:        point(t.Bargain),
		FairnessEnergy: t.FairnessEnergy, FairnessDelay: t.FairnessDelay,
		Degenerate: t.Degenerate, BudgetExceeded: t.BudgetExceeded,
	}
}

func cloneResult(r edmac.Result) edmac.Result {
	r.EnergyOptimal.Params = append([]float64(nil), r.EnergyOptimal.Params...)
	r.DelayOptimal.Params = append([]float64(nil), r.DelayOptimal.Params...)
	r.Bargain.Params = append([]float64(nil), r.Bargain.Params...)
	return r
}

// simulate replays POST /v1/simulate for a builtin scenario.
func (h *serveReplica) simulate(r replayer, parent spanID, op int64, body []byte) ([]byte, error) {
	var req edmac.SimulateRequest
	key, hit, err := h.lookup(r, parent, op, "simulate", body, &req, func() any {
		k := req
		if k.Options.Duration <= 0 {
			k.Options.Duration = edmac.DefaultSimDuration
		}
		return k
	})
	if err != nil || hit != nil {
		return hit, err
	}
	id := r.tr.begin("client.simulate", parent, op)
	wire, err := h.clientSimulate(r, id, op, req)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	return h.respond(r, parent, op, key, struct {
		Sim wireSim `json:"sim"`
	}{wire})
}

// clientSimulate replays Client.Simulate on a named builtin: the
// scenario is materialized afresh for every request.
func (h *serveReplica) clientSimulate(r replayer, parent spanID, op int64, req edmac.SimulateRequest) (wireSim, error) {
	spec, ok := scenario.ByName(req.ScenarioName)
	if !ok || req.Spec != nil || req.Scenario != nil || req.Validate {
		return wireSim{}, fmt.Errorf("replay covers plain builtin simulations only")
	}
	duration := req.Options.Duration
	if duration <= 0 {
		duration = edmac.DefaultSimDuration
	}
	var mat *scenario.Materialized
	var err error
	r.tr.do("scenario.materialize", parent, op, func() { mat, err = spec.Materialize() })
	if err != nil {
		return wireSim{}, err
	}
	capture, captureDB := spec.CaptureConfig()
	cfg := sim.Config{
		Protocol: string(req.Protocol), Network: mat.Network, Radio: mat.Radio,
		Params: opt.Vector(append([]float64(nil), req.Params...)), Traffic: mat.Traffic,
		Payload: spec.Payload, Duration: duration, Seed: req.Options.Seed,
		Capture: capture, CaptureDB: captureDB,
	}
	cfg.Failures, cfg.Battery = faultConfigOf(spec)
	r.st.keepSim(cfg)
	res, err := r.simulate("sim.run", parent, op, func(spanID) (*sim.Result, error) {
		return sim.RunContext(context.Background(), cfg)
	})
	if err != nil {
		return wireSim{}, err
	}
	return wireSimOf(req.Protocol, req.Params, cfg.Seed, mat.Network, spec.Window, res), nil
}

// wireSim is the simulation report as /v1/simulate encodes it.
type wireSim struct {
	Protocol           edmac.Protocol `json:"protocol"`
	Params             []float64      `json:"params"`
	Seed               int64          `json:"seed"`
	Duration           float64        `json:"duration"`
	Nodes              int            `json:"nodes"`
	Generated          int            `json:"generated"`
	Delivered          int            `json:"delivered"`
	Duplicates         int            `json:"duplicates,omitempty"`
	Dropped            int            `json:"dropped"`
	Collisions         int            `json:"collisions"`
	ChannelLosses      int            `json:"channel_losses,omitempty"`
	Captures           int            `json:"captures,omitempty"`
	DeliveryRatio      float64        `json:"delivery_ratio"`
	MeanDelay          *float64       `json:"mean_delay,omitempty"`
	MaxDelay           *float64       `json:"max_delay,omitempty"`
	P95Delay           *float64       `json:"p95_delay,omitempty"`
	OuterRingDelay     *float64       `json:"outer_ring_delay,omitempty"`
	BottleneckEnergy   float64        `json:"bottleneck_energy"`
	Events             uint64         `json:"events,omitempty"`
	PeakPending        int            `json:"peak_pending,omitempty"`
	WheelPromotions    uint64         `json:"wheel_promotions,omitempty"`
	Deaths             int            `json:"deaths,omitempty"`
	Recoveries         int            `json:"recoveries,omitempty"`
	DeadAtEnd          int            `json:"dead_at_end,omitempty"`
	StrandedPackets    int            `json:"stranded_packets,omitempty"`
	DeadNodeFraction   float64        `json:"dead_node_fraction,omitempty"`
	PartitionFraction  float64        `json:"partition_fraction,omitempty"`
	Rebargains         int            `json:"rebargains,omitempty"`
	DegradedRebargains int            `json:"degraded_rebargains,omitempty"`
}

func wireSimOf(p edmac.Protocol, params []float64, seed int64, net *topology.Network, window float64, res *sim.Result) wireSim {
	s := suiteSimOf(seed, net, window, res)
	return wireSim{
		Protocol: p, Params: append([]float64(nil), params...), Seed: seed, Duration: res.Duration,
		Nodes: s.Nodes, Generated: s.Generated, Delivered: s.Delivered, Duplicates: s.Duplicates,
		Dropped: s.Dropped, Collisions: s.Collisions, ChannelLosses: s.ChannelLosses, Captures: s.Captures,
		DeliveryRatio: s.DeliveryRatio, MeanDelay: s.MeanDelay,
		MaxDelay: jsonwire.FiniteOrNil(res.Metrics.MaxDelay()),
		P95Delay: s.P95Delay, OuterRingDelay: s.OuterRingDelay, BottleneckEnergy: s.BottleneckEnergy,
		Events: res.Events, PeakPending: res.PeakPending, WheelPromotions: res.WheelPromotions,
		Deaths: s.Deaths, Recoveries: s.Recoveries, DeadAtEnd: s.DeadAtEnd, StrandedPackets: s.StrandedPackets,
		DeadNodeFraction: s.DeadNodeFraction, PartitionFraction: s.PartitionFraction,
		Rebargains: s.Rebargains, DegradedRebargains: s.DegradedRebargains,
	}
}

// suiteJob is the suite payload of a POST /v1/jobs body.
type suiteJob struct {
	Suite *struct {
		Scenarios []string           `json:"scenarios,omitempty"`
		Protocols []edmac.Protocol   `json:"protocols,omitempty"`
		Options   edmac.SuiteOptions `json:"options,omitempty"`
	} `json:"suite,omitempty"`
}

// job replays POST /v1/jobs for a one-cell suite, then the walk a caller
// makes: follow the event stream to the end and fetch the result. The
// job runs on the replica's job store; its spans hang under "jobs.walk".
func (h *serveReplica) job(r replayer, parent spanID, op int64, body []byte, seed int64) ([]byte, error) {
	var req suiteJob
	key, hit, err := h.lookup(r, parent, op, "suite", body, &req, func() any {
		if req.Suite == nil {
			return nil
		}
		k := *req.Suite
		k.Options.Workers = 0
		if k.Options.Duration <= 0 {
			k.Options.Duration = edmac.DefaultSuiteDuration
		}
		if k.Options.EnergyBudget <= 0 {
			k.Options.EnergyBudget = edmac.DefaultEnergyBudget()
		}
		return k
	})
	if err != nil || hit != nil {
		return hit, err
	}
	q := req.Suite
	if len(q.Scenarios) != 1 || len(q.Protocols) != 1 {
		return nil, fmt.Errorf("replay covers one-cell suite jobs only")
	}
	spec, ok := scenario.ByName(q.Scenarios[0])
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", q.Scenarios[0])
	}
	o := q.Options
	if o.Duration <= 0 {
		o.Duration = edmac.DefaultSuiteDuration
	}
	if o.EnergyBudget <= 0 {
		o.EnergyBudget = edmac.DefaultEnergyBudget()
	}
	p := q.Protocols[0]

	walk := r.tr.begin("jobs.walk", parent, op)
	defer r.tr.end(walk)
	j, err := h.store.Submit("suite", 1, func(ctx context.Context, j *jobs.Job) (any, error) {
		id := r.tr.begin("jobs.run", walk, op)
		defer r.tr.end(id)
		cs := r.tr.begin("client.suite", id, op)
		var mat *scenario.Materialized
		var err error
		r.tr.do("scenario.materialize", cs, op, func() { mat, err = spec.Materialize() })
		if err != nil {
			r.tr.end(cs)
			return nil, err
		}
		ms := prepareScenario(spec, mat, o.Duration, p == edmac.LMAC)
		cell := r.cell(cs, op, &ms, p, o.Duration, o.EnergyBudget, seed)
		report := &edmac.SuiteReport{Version: scenario.Version, Seed: o.Seed, Duration: o.Duration,
			Scenarios: []edmac.SuiteScenario{ms.row()}, Protocols: []edmac.Protocol{p}, Cells: []edmac.SuiteCell{cell}}
		r.tr.end(cs)
		j.Advance("cell", cell)
		j.Advance("", nil)
		return h.respond(r, id, op, key, report)
	})
	if err != nil {
		return nil, err
	}
	events := 0
	if err := j.Events(context.Background(), 0, func(jobs.Event) error { events++; return nil }); err != nil {
		return nil, err
	}
	res, err, _ := j.Result()
	if err != nil {
		return nil, err
	}
	return res.([]byte), nil
}

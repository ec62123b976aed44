package edmac

import (
	"context"
	"errors"
	"fmt"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/lru"
)

// Client is the package's service surface: one configured entry point
// whose methods expose the whole pipeline — P1/P2 optima and the Nash
// bargain (Optimize, Frontier, Compare, Sweep), the packet-level
// simulator (Simulate, Batch) and the scenario×protocol evaluation
// matrix (Suite, SuiteStream) — uniformly as (ctx, Request) →
// (Report, error).
//
// A Client is immutable after construction and safe for concurrent use
// by any number of goroutines; one Client per process is the intended
// shape (the edserve HTTP service runs exactly that). The zero Client
// is invalid; use NewClient.
//
// Determinism carries over from the underlying layers: equal requests
// against equally-configured clients produce identical reports, which
// is what makes result caching (WithCache) sound.
type Client struct {
	workers  int
	scenario Scenario
	baseSeed int64
	cache    *lru.Cache // nil: caching disabled
}

// Option configures a Client under construction (functional options).
type Option func(*Client) error

// WithWorkers fixes the worker-pool size used by Sweep, Batch and
// Suite when their requests don't name one. Values below 1 (the
// default) mean one worker per CPU.
func WithWorkers(n int) Option {
	return func(c *Client) error {
		c.workers = n
		return nil
	}
}

// WithScenario sets the deployment used by requests whose Scenario
// field is nil. The default is DefaultScenario(). The scenario is
// validated at construction so a misconfigured client fails fast, not
// on first use.
func WithScenario(s Scenario) Option {
	return func(c *Client) error {
		if _, err := s.env(); err != nil {
			return fmt.Errorf("edmac: WithScenario: %w", err)
		}
		c.scenario = s
		return nil
	}
}

// WithBaseSeed sets the client's seed policy: the base is folded (XOR)
// into every simulation seed a request supplies, so one deployment's
// runs decorrelate from another's while each request stays
// reproducible from its own seed. The default base 0 folds to the
// identity: seeds pass through untouched. Effective seeds are echoed
// in the reports (SimReport.Seed, SuiteReport.Seed), so results remain
// self-describing.
func WithBaseSeed(seed int64) Option {
	return func(c *Client) error {
		c.baseSeed = seed
		return nil
	}
}

// WithCache enables the client's analytic result cache: a bounded,
// concurrency-safe LRU keyed on the canonicalized request JSON,
// covering Optimize, Frontier, Compare and Sweep — identical repeated
// requests are served from memory instead of re-running the
// Nelder-Mead solvers. Capacities below 1 select DefaultCacheSize.
// Cached values are deep-copied on both insert and hit, so callers may
// mutate reports freely. Simulation methods are never cached here. The
// cache serves in-process callers that repeat requests; cmd/edserve
// does not enable it, since its response cache holds whole answers.
//
// The default is no cache: every request runs the solvers.
func WithCache(capacity int) Option {
	return func(c *Client) error {
		if capacity < 1 {
			capacity = DefaultCacheSize
		}
		c.cache = lru.New(capacity)
		return nil
	}
}

// NewClient builds a Client from functional options; see the Option
// constructors for the knobs and their defaults.
func NewClient(opts ...Option) (*Client, error) {
	c := &Client{scenario: DefaultScenario()}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CacheStats describes the result cache's lifetime effectiveness.
type CacheStats struct {
	// Hits and Misses count cache lookups (0/0 when caching is off).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// CacheStats reports the analytic result cache's counters; all-zero
// when the client was built without WithCache.
func (c *Client) CacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	hits, misses := c.cache.Stats()
	return CacheStats{Hits: hits, Misses: misses, Entries: c.cache.Len()}
}

// ready normalizes the context convention shared by every method: nil
// means context.Background(), and an already-done context fails before
// any work starts.
func ready(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx, ctx.Err()
}

// scenarioOrDefault resolves a request's optional scenario against the
// client's default.
func (c *Client) scenarioOrDefault(s *Scenario) Scenario {
	if s != nil {
		return *s
	}
	return c.scenario
}

// workersOrDefault resolves a request's optional worker count against
// the client's default.
func (c *Client) workersOrDefault(n int) int {
	if n > 0 {
		return n
	}
	return c.workers
}

// cacheKey is the module's request-canonicalization rule (operation
// name + canonical JSON); the serve layer keys its response cache with
// it too.
var cacheKey = jsonwire.CacheKey

// clone deep-copies a Result so cached values never alias caller-held
// slices.
func (r Result) clone() Result {
	r.EnergyOptimal.Params = append([]float64(nil), r.EnergyOptimal.Params...)
	r.DelayOptimal.Params = append([]float64(nil), r.DelayOptimal.Params...)
	r.Bargain.Params = append([]float64(nil), r.Bargain.Params...)
	return r
}

// --- Optimize ---------------------------------------------------------

// OptimizeRequest asks for the full energy-delay game of one protocol.
type OptimizeRequest struct {
	// Protocol selects the MAC protocol to play.
	Protocol Protocol `json:"protocol"`
	// Scenario is the deployment; nil selects the client's default.
	Scenario *Scenario `json:"scenario,omitempty"`
	// Requirements are the application inputs (Ebudget, Lmax).
	Requirements Requirements `json:"requirements"`
	// Relaxed selects the paper's figure behaviour for over-constrained
	// requirements: a best-effort point flagged BudgetExceeded instead
	// of ErrInfeasible.
	Relaxed bool `json:"relaxed,omitempty"`
}

// OptimizeReport is the game's outcome.
type OptimizeReport struct {
	Result Result `json:"result"`
}

// cachedOptimize is the cache entry of one optimize request: the
// result, or the (immutable) infeasibility error.
type cachedOptimize struct {
	res Result
	err error
}

// Optimize plays the full game for one protocol: P1/P2 optima, threat
// point and the Nash bargain. With caching enabled, repeated identical
// requests — including ones that proved infeasible — are served from
// the LRU instead of the Nelder-Mead solver. A single solve takes
// milliseconds and runs to completion once started; ctx is honoured at
// the request boundary (the multi-solve methods — Frontier, Compare,
// Sweep — cancel at cell granularity).
func (c *Client) Optimize(ctx context.Context, req OptimizeRequest) (OptimizeReport, error) {
	if _, err := ready(ctx); err != nil {
		return OptimizeReport{}, err
	}
	res, err := c.optimizeCached(req.Protocol, c.scenarioOrDefault(req.Scenario), req.Requirements, req.Relaxed)
	if err != nil {
		return OptimizeReport{}, err
	}
	return OptimizeReport{Result: res}, nil
}

// optimizeCached is the cache-aware core shared by Optimize and
// Compare.
func (c *Client) optimizeCached(p Protocol, s Scenario, r Requirements, relaxed bool) (Result, error) {
	key, cacheable := "", false
	if c.cache != nil {
		key, cacheable = cacheKey("optimize", OptimizeRequest{Protocol: p, Scenario: &s, Requirements: r, Relaxed: relaxed})
		if cacheable {
			if v, ok := c.cache.Get(key); ok {
				hit := v.(cachedOptimize)
				return hit.res.clone(), hit.err
			}
		}
	}
	res, err := optimize(p, s, r, relaxed)
	// Solver outcomes are pure functions of the request, so successes
	// and infeasibility verdicts both cache; other errors (bad scenario,
	// unknown protocol) are cheap to recompute and stay out.
	if cacheable && (err == nil || errors.Is(err, ErrInfeasible)) {
		c.cache.Add(key, cachedOptimize{res: res.clone(), err: err})
	}
	return res, err
}

// --- Frontier ---------------------------------------------------------

// FrontierRequest asks for a protocol's Pareto curve.
type FrontierRequest struct {
	Protocol Protocol  `json:"protocol"`
	Scenario *Scenario `json:"scenario,omitempty"`
	// Requirements bound the curve (delay up to MaxDelay under
	// EnergyBudget).
	Requirements Requirements `json:"requirements"`
	// Points is the number of sweep points (≥ 2).
	Points int `json:"points"`
}

// FrontierReport is the traced Pareto frontier.
type FrontierReport struct {
	Protocol Protocol        `json:"protocol"`
	Points   []FrontierPoint `json:"points"`
}

// Frontier traces a protocol's energy-delay Pareto frontier — the
// continuous curves of the paper's figures. Cached like Optimize;
// cancelling ctx abandons the trace at point granularity.
func (c *Client) Frontier(ctx context.Context, req FrontierRequest) (FrontierReport, error) {
	ctx, err := ready(ctx)
	if err != nil {
		return FrontierReport{}, err
	}
	s := c.scenarioOrDefault(req.Scenario)
	key, cacheable := "", false
	if c.cache != nil {
		resolved := req
		resolved.Scenario = &s
		key, cacheable = cacheKey("frontier", resolved)
		if cacheable {
			if v, ok := c.cache.Get(key); ok {
				return FrontierReport{Protocol: req.Protocol, Points: cloneFrontier(v.([]FrontierPoint))}, nil
			}
		}
	}
	pts, err := frontier(ctx, req.Protocol, s, req.Requirements, req.Points)
	if err != nil {
		return FrontierReport{}, err
	}
	if cacheable {
		c.cache.Add(key, cloneFrontier(pts))
	}
	return FrontierReport{Protocol: req.Protocol, Points: pts}, nil
}

func cloneFrontier(pts []FrontierPoint) []FrontierPoint {
	out := make([]FrontierPoint, len(pts))
	for i, pt := range pts {
		pt.Params = append([]float64(nil), pt.Params...)
		out[i] = pt
	}
	return out
}

// --- Compare ----------------------------------------------------------

// CompareRequest plays the same requirements across several protocols.
type CompareRequest struct {
	Scenario     *Scenario    `json:"scenario,omitempty"`
	Requirements Requirements `json:"requirements"`
	// Protocols lists the contenders; empty selects the paper's three
	// (XMAC, DMAC, LMAC).
	Protocols []Protocol `json:"protocols,omitempty"`
}

// CompareReport is one entry per protocol, in request order, plus the
// winner. Per-protocol failures are entries with Err set — an
// infeasible protocol is reported, never silently dropped.
type CompareReport struct {
	Comparisons []Comparison `json:"comparisons"`
	// Best indexes the winning comparison (lowest bargain energy among
	// protocols meeting the requirements outright); -1 when none
	// qualifies.
	Best int `json:"best"`
}

// Compare plays the game for each requested protocol under the same
// requirements (relaxed mode, as in the paper's figures). Cancelling
// ctx abandons the comparison at protocol granularity.
func (c *Client) Compare(ctx context.Context, req CompareRequest) (CompareReport, error) {
	ctx, err := ready(ctx)
	if err != nil {
		return CompareReport{}, err
	}
	protocols := req.Protocols
	if len(protocols) == 0 {
		protocols = PaperProtocols()
	}
	s := c.scenarioOrDefault(req.Scenario)
	out := make([]Comparison, 0, len(protocols))
	for _, p := range protocols {
		if err := ctx.Err(); err != nil {
			return CompareReport{}, err
		}
		res, err := c.optimizeCached(p, s, req.Requirements, true)
		out = append(out, Comparison{Protocol: p, Result: res, Err: err})
	}
	report := CompareReport{Comparisons: out, Best: -1}
	if best, ok := Best(out); ok {
		for i := range out {
			if out[i].Protocol == best.Protocol {
				report.Best = i
				break
			}
		}
	}
	return report, nil
}

// --- Sweep ------------------------------------------------------------

// SweepAxis selects which requirement coordinate a Sweep varies.
type SweepAxis string

const (
	// SweepDelay varies MaxDelay with EnergyBudget fixed (Figure 1).
	SweepDelay SweepAxis = "max-delay"
	// SweepEnergy varies EnergyBudget with MaxDelay fixed (Figure 2).
	SweepEnergy SweepAxis = "energy-budget"
)

// SweepRequest asks for a series of games along one requirement axis.
type SweepRequest struct {
	Protocol Protocol  `json:"protocol"`
	Scenario *Scenario `json:"scenario,omitempty"`
	// Axis names the varied coordinate.
	Axis SweepAxis `json:"axis"`
	// Fixed is the held coordinate: the energy budget for SweepDelay,
	// the delay bound for SweepEnergy.
	Fixed float64 `json:"fixed"`
	// Values are the swept coordinate's values, solved independently
	// (and concurrently) in this order.
	Values []float64 `json:"values"`
	// Workers bounds the pool; 0 means the client's default.
	Workers int `json:"workers,omitempty"`
}

// SweepReport is the solved series, ordered like the request's Values.
type SweepReport struct {
	Protocol Protocol     `json:"protocol"`
	Axis     SweepAxis    `json:"axis"`
	Points   []SweepPoint `json:"points"`
}

// Sweep solves the game at every value of the chosen requirement axis,
// fanning the independent cells over the worker pool with the module's
// usual determinism contract (bit-identical to sequential, ordered
// like the input). Successful sweeps are cached like Optimize.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepReport, error) {
	ctx, err := ready(ctx)
	if err != nil {
		return SweepReport{}, err
	}
	s := c.scenarioOrDefault(req.Scenario)
	key, cacheable := "", false
	if c.cache != nil {
		resolved := req
		resolved.Scenario = &s
		resolved.Workers = 0 // concurrency never changes results
		key, cacheable = cacheKey("sweep", resolved)
		if cacheable {
			if v, ok := c.cache.Get(key); ok {
				return SweepReport{Protocol: req.Protocol, Axis: req.Axis, Points: cloneSweep(v.([]SweepPoint))}, nil
			}
		}
	}
	if req.Axis != SweepDelay && req.Axis != SweepEnergy {
		return SweepReport{}, fmt.Errorf("edmac: unknown sweep axis %q (want %q or %q)", req.Axis, SweepDelay, SweepEnergy)
	}
	reqs := make([]core.Requirements, len(req.Values))
	for i, v := range req.Values {
		reqs[i] = core.Requirements{EnergyBudget: req.Fixed, MaxDelay: v}
		if req.Axis == SweepEnergy {
			reqs[i] = core.Requirements{EnergyBudget: v, MaxDelay: req.Fixed}
		}
	}
	pts, err := sweep(ctx, req.Protocol, s, reqs, c.workersOrDefault(req.Workers))
	if err != nil {
		return SweepReport{}, err
	}
	if cacheable {
		c.cache.Add(key, cloneSweep(pts))
	}
	return SweepReport{Protocol: req.Protocol, Axis: req.Axis, Points: pts}, nil
}

func cloneSweep(pts []SweepPoint) []SweepPoint {
	out := make([]SweepPoint, len(pts))
	for i, pt := range pts {
		pt.Result = pt.Result.clone()
		out[i] = pt
	}
	return out
}

// --- Evaluate / Params ------------------------------------------------

// EvaluateRequest asks for the analytic metrics of an explicit
// parameter vector.
type EvaluateRequest struct {
	Protocol Protocol  `json:"protocol"`
	Scenario *Scenario `json:"scenario,omitempty"`
	Params   []float64 `json:"params"`
}

// EvaluateReport carries the model's predictions at the vector.
type EvaluateReport struct {
	// Energy is joules per window at the bottleneck node; Delay the
	// worst-case expected end-to-end delay in seconds.
	Energy float64 `json:"energy"`
	Delay  float64 `json:"delay"`
}

// Evaluate returns the analytic energy and delay of an explicit
// parameter vector — what-if exploration around an optimum.
func (c *Client) Evaluate(ctx context.Context, req EvaluateRequest) (EvaluateReport, error) {
	if _, err := ready(ctx); err != nil {
		return EvaluateReport{}, err
	}
	energy, delay, err := evaluate(req.Protocol, c.scenarioOrDefault(req.Scenario), req.Params)
	if err != nil {
		return EvaluateReport{}, err
	}
	return EvaluateReport{Energy: energy, Delay: delay}, nil
}

// ParamsRequest asks for a protocol's tunable parameter table.
type ParamsRequest struct {
	Protocol Protocol  `json:"protocol"`
	Scenario *Scenario `json:"scenario,omitempty"`
}

// ParamsReport is the parameter table, in the order every Params slice
// in this package uses.
type ParamsReport struct {
	Params []ParamSpec `json:"params"`
}

// Params returns the tunable parameter table of a protocol under the
// scenario.
func (c *Client) Params(ctx context.Context, req ParamsRequest) (ParamsReport, error) {
	if _, err := ready(ctx); err != nil {
		return ParamsReport{}, err
	}
	specs, err := paramSpecs(req.Protocol, c.scenarioOrDefault(req.Scenario))
	if err != nil {
		return ParamsReport{}, err
	}
	return ParamsReport{Params: specs}, nil
}

// --- Simulate ---------------------------------------------------------

// SimulateRequest replays a protocol configuration at packet level.
// The deployment comes from exactly one of three sources: Spec (a
// declarative scenario), ScenarioName (the builtin registry), or
// Scenario (the analytic ring placement; nil falls back to the
// client's default rings).
type SimulateRequest struct {
	Protocol Protocol `json:"protocol"`
	// Scenario simulates the deterministic ring placement of the
	// analytic scenario, as its equivalent spec: periodic traffic at
	// 1/SampleInterval and, for a LinkPRR below 1, a Bernoulli channel
	// at that PRR.
	Scenario *Scenario `json:"scenario,omitempty"`
	// ScenarioName selects a builtin declarative scenario by registry
	// name (see BuiltinScenarios).
	ScenarioName string `json:"scenario_name,omitempty"`
	// Spec is a full declarative scenario, simulated on its explicit
	// network under its traffic model.
	Spec *ScenarioSpec `json:"spec,omitempty"`
	// Params is the protocol parameter vector (macmodel coordinates).
	Params []float64 `json:"params"`
	// Options carry duration and seed; the client's base seed is folded
	// into the effective seed (see WithBaseSeed).
	Options SimOptions `json:"options,omitempty"`
	// Validate adds the measured-vs-analytic cross-check to the report.
	Validate bool `json:"validate,omitempty"`
}

// AnalyticCheck contrasts a simulation with the analytic model.
type AnalyticCheck struct {
	// Energy and Delay are the model's predictions.
	Energy float64 `json:"energy"`
	Delay  float64 `json:"delay"`
	// EnergyRatio and DelayRatio are measured/predicted, omitted when
	// the measurement is unusable (e.g. nothing was delivered).
	EnergyRatio *float64 `json:"energy_ratio,omitempty"`
	DelayRatio  *float64 `json:"delay_ratio,omitempty"`
}

// SimulateReport is the measured outcome, plus the analytic
// cross-check when the request asked to validate.
type SimulateReport struct {
	Sim SimReport `json:"sim"`
	// Analytic is set if and only if the request's Validate flag was.
	Analytic *AnalyticCheck `json:"analytic,omitempty"`
}

// Simulate replays a protocol configuration at packet level and
// reports measured delivery, delay and energy. Cancelling ctx aborts
// the event loop within a few thousand events — long lossy-channel
// runs no longer have to be waited out. SCPMAC is analytic-only and
// rejected, as always.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (SimulateReport, error) {
	ctx, err := ready(ctx)
	if err != nil {
		return SimulateReport{}, err
	}
	o := req.Options
	o.Seed ^= c.baseSeed

	named := 0
	for _, set := range []bool{req.Scenario != nil, req.ScenarioName != "", req.Spec != nil} {
		if set {
			named++
		}
	}
	if named > 1 {
		return SimulateReport{}, fmt.Errorf("edmac: simulate request names %d deployments; set at most one of scenario, scenario_name, spec", named)
	}

	// Every deployment runs as a spec. The analytic check takes a ring
	// request's Scenario exactly as given: the spec's equivalent ring
	// re-derives the density from the placement's mean degree and the
	// interval from a mean rate, and neither returns the Scenario's own.
	var sp ScenarioSpec
	var analytic *Scenario
	switch {
	case req.Spec != nil:
		sp = *req.Spec
	case req.ScenarioName != "":
		var ok bool
		if sp, ok = BuiltinScenario(req.ScenarioName); !ok {
			return SimulateReport{}, fmt.Errorf("edmac: unknown builtin scenario %q", req.ScenarioName)
		}
	default:
		if err := simulable(req.Protocol); err != nil {
			return SimulateReport{}, err
		}
		s := c.scenarioOrDefault(req.Scenario)
		if sp, err = s.spec(); err != nil {
			return SimulateReport{}, err
		}
		analytic = &s
	}
	rep, err := simulateScenario(ctx, req.Protocol, sp, req.Params, o)
	if err != nil {
		return SimulateReport{}, err
	}
	out := SimulateReport{Sim: rep}
	if req.Validate {
		if analytic == nil {
			s, err := sp.Scenario()
			if err != nil {
				return SimulateReport{}, err
			}
			analytic = &s
		}
		check, err := analyticCheckOf(req.Protocol, *analytic, req.Params, rep)
		if err != nil {
			return SimulateReport{}, err
		}
		out.Analytic = &check
	}
	return out, nil
}

// analyticCheckOf evaluates the model at the simulated vector and
// forms the measured/predicted ratios, falling back to raw model
// evaluation for vectors outside the admissible box (a deliberately
// extreme what-if).
func analyticCheckOf(p Protocol, s Scenario, params []float64, rep SimReport) (AnalyticCheck, error) {
	energy, delay, err := evaluate(p, s, params)
	if err != nil {
		m, merr := s.model(p)
		if merr != nil {
			return AnalyticCheck{}, merr
		}
		x, verr := vec(m, params)
		if verr != nil {
			return AnalyticCheck{}, verr
		}
		energy, delay = m.Energy(x), m.Delay(x)
	}
	check := AnalyticCheck{Energy: energy, Delay: delay}
	if rep.BottleneckEnergy > 0 {
		check.EnergyRatio = finiteOrNil(rep.BottleneckEnergy / energy)
	}
	check.DelayRatio = finiteOrNil(rep.OuterRingDelay / delay)
	return check, nil
}

// --- Batch ------------------------------------------------------------

// BatchRequest executes independent simulation runs concurrently.
type BatchRequest struct {
	// Scenario is the shared ring deployment, simulated as Simulate
	// simulates it; nil selects the client's default.
	Scenario *Scenario `json:"scenario,omitempty"`
	// Runs are the independent simulations; outcomes keep this order.
	Runs []BatchRun `json:"runs"`
	// Workers bounds the pool; 0 means the client's default.
	Workers int `json:"workers,omitempty"`
}

// BatchReport is one outcome per run, in request order.
type BatchReport struct {
	Outcomes []BatchOutcome `json:"outcomes"`
}

// Batch executes independent simulation runs concurrently on the
// worker pool. Reports are bit-identical to sequential Simulate calls
// with the same inputs; parallelism changes only the wall clock.
// Cancelling ctx abandons queued runs and aborts in-flight ones; their
// outcomes carry the context's error, and Batch additionally returns
// it. Unlike the other methods, an already-done ctx still yields one
// outcome per run (each carrying the context's error, or its own
// validation error) — batch consumers index outcomes by run, so the
// slice's shape must never depend on timing.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (BatchReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := simulateBatch(ctx, c.scenarioOrDefault(req.Scenario), req.Runs, c.workersOrDefault(req.Workers), c.baseSeed)
	return BatchReport{Outcomes: out}, ctx.Err()
}

// --- Suite ------------------------------------------------------------

// SuiteRequest plays the scenario×protocol evaluation matrix.
type SuiteRequest struct {
	// Scenarios are the deployments; at least one is required (the
	// edserve layer defaults to the whole builtin registry).
	Scenarios []ScenarioSpec `json:"scenarios"`
	// Protocols are the columns; at least one is required.
	Protocols []Protocol `json:"protocols"`
	// Options tune per-cell duration, requirements, seeding and the
	// adaptive runtime.
	Options SuiteOptions `json:"options,omitempty"`
}

// Suite plays the full evaluation matrix — every scenario × every
// protocol — in parallel on the worker pool and returns the monolithic
// report; use SuiteStream to consume cells as they finish. Each cell
// maps the scenario onto its equivalent analytic ring model, bargains
// the protocol's parameters under the requirements, then replays the
// bargain at packet level on the explicit network under the scenario's
// traffic model (SCPMAC cells stay analytic-only). Cells are
// independent, so the matrix fans out over the pool with the same
// determinism contract as every parallel layer in this module: results
// are bit-identical to the sequential run and ordered scenario-major.
//
// Phased (version-2) scenarios additionally play the adaptive runtime
// when their spec says so or SuiteOptions.Adaptive forces it: the
// bargain is re-played per traffic phase and deployed at the phase
// boundaries by sim.RunPhasedContext, with the frozen static bargain
// simulated alongside as the baseline (see SuiteCell).
//
// Cancelling ctx abandons the suite and returns ctx.Err(). Per-cell
// failures (an unmeetable delay bound, an unschedulable LMAC frame) are
// recorded in the cell's Err field and do not stop the run.
func (c *Client) Suite(ctx context.Context, req SuiteRequest) (*SuiteReport, error) {
	return c.runSuite(ctx, req, nil)
}

// SuiteObserved plays the matrix like Suite while also delivering each
// cell to fn as it finishes (SuiteStream's delivery contract: serial,
// completion order, a non-nil error cancels the rest) and still
// returning the monolithic report. This is the shape progress-tracking
// callers — edserve's async suite jobs above all — need: live per-cell
// events plus the byte-stable final report. A nil fn makes it exactly
// Suite.
func (c *Client) SuiteObserved(ctx context.Context, req SuiteRequest, fn func(SuiteCell) error) (*SuiteReport, error) {
	return c.runSuite(ctx, req, fn)
}

// SuiteStream is Suite delivering each SuiteCell to fn as it finishes
// instead of one monolithic report — the shape long-running matrix
// consumers (progress UIs, NDJSON responses) want. fn is called
// serially (never concurrently) but in completion order, which is not
// report order; cells identify themselves by scenario and protocol. A
// non-nil error from fn cancels the remaining cells and is returned.
//
// The cells fn sees are exactly the cells a plain Suite call would
// report — streaming changes delivery, not content.
func (c *Client) SuiteStream(ctx context.Context, req SuiteRequest, fn func(SuiteCell) error) error {
	if fn == nil {
		return fmt.Errorf("edmac: SuiteStream needs a cell callback")
	}
	_, err := c.runSuite(ctx, req, fn)
	return err
}

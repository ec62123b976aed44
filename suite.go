package edmac

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"github.com/edmac-project/edmac/internal/adapt"
	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/par"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/sim"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// SuiteOptions configure a RunSuite matrix run.
type SuiteOptions struct {
	// Duration is the simulated seconds per cell (default
	// DefaultSuiteDuration).
	Duration float64 `json:"duration,omitempty"`
	// Seed is the base seed; each cell derives its own seed from it and
	// the cell's (scenario, protocol) pair, so cells are decorrelated
	// but the whole suite is reproducible from one number. The zero
	// value is a real seed (see SimOptions.Seed).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the worker pool (one per CPU when < 1, or the
	// Client's WithWorkers default on the client path).
	Workers int `json:"workers,omitempty"`
	// EnergyBudget is the per-cell requirement Ebudget in joules per
	// window (default: the paper's 0.06 J).
	EnergyBudget float64 `json:"energy_budget,omitempty"`
	// MaxDelay is the per-cell delay bound Lmax in seconds. When 0 it
	// scales with each scenario's depth (3 + 1.2·D), since a bound fit
	// for a 3-hop ring is unreachable for a 24-hop tunnel.
	MaxDelay float64 `json:"max_delay,omitempty"`
	// Adaptive forces re-bargaining on every scenario with something to
	// adapt to, whatever its adaptation block says: per-phase vectors on
	// phased (version-2) scenarios and degradation-aware re-bargains on
	// faulty (version-4) ones. Scenarios whose spec declares a mode
	// ("per-phase", "on-death") adapt even when this is false;
	// stationary failure-free scenarios are never affected.
	Adaptive bool `json:"adaptive,omitempty"`
}

// SuiteScenario summarizes one materialized scenario of a suite report.
type SuiteScenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Topology    string  `json:"topology"`
	Traffic     string  `json:"traffic"`
	Nodes       int     `json:"nodes"`
	Depth       int     `json:"depth"`
	MeanDegree  float64 `json:"mean_degree"`
	// RingDepth and RingDensity are the equivalent analytic ring model
	// the game was played on.
	RingDepth   int `json:"ring_depth"`
	RingDensity int `json:"ring_density"`
	// MeanRate is the average per-node generation rate in packets/s.
	MeanRate float64 `json:"mean_rate"`
	// Channel is the link-quality family ("bernoulli", "shadowing");
	// omitted for the perfect channel, so legacy rows stay byte-stable.
	Channel string `json:"channel,omitempty"`
	// MeanLinkPRR is the network's average link reception ratio; omitted
	// (0) for perfect channels.
	MeanLinkPRR float64 `json:"mean_link_prr,omitempty"`
	// Failures is the failure-process family ("churn", "schedule") and
	// BatteryJ the per-node battery capacity in joules; both omitted for
	// failure-free scenarios, so legacy rows stay byte-stable.
	Failures string  `json:"failures,omitempty"`
	BatteryJ float64 `json:"battery_j,omitempty"`
}

// SuiteAnalytic is the game-theoretic side of a suite cell: the Nash
// bargain the framework would deploy.
type SuiteAnalytic struct {
	Energy         float64 `json:"energy"`
	Delay          float64 `json:"delay"`
	Degenerate     bool    `json:"degenerate,omitempty"`
	BudgetExceeded bool    `json:"budget_exceeded,omitempty"`
}

// SuiteSim is the measured side of a suite cell. Delay fields are
// omitted when nothing qualifying was delivered (they would be NaN).
type SuiteSim struct {
	Seed      int64 `json:"seed"`
	Nodes     int   `json:"nodes"`
	Generated int   `json:"generated"`
	Delivered int   `json:"delivered"`
	// Duplicates counts redundant sink receptions (retries after lost
	// ACKs of already-delivered packets); Delivered excludes them, so
	// DeliveryRatio never exceeds 1.
	Duplicates int `json:"duplicates,omitempty"`
	Dropped    int `json:"dropped"`
	Collisions int `json:"collisions"`
	// ChannelLosses counts receptions lost to the lossy-link draw and
	// Captures overlaps survived via the capture effect; both omitted
	// (0) on the perfect channel.
	ChannelLosses    int      `json:"channel_losses,omitempty"`
	Captures         int      `json:"captures,omitempty"`
	DeliveryRatio    float64  `json:"delivery_ratio"`
	MeanDelay        *float64 `json:"mean_delay,omitempty"`
	P95Delay         *float64 `json:"p95_delay,omitempty"`
	OuterRingDelay   *float64 `json:"outer_ring_delay,omitempty"`
	BottleneckEnergy float64  `json:"bottleneck_energy"`
	// Survivability columns (see SimReport's survivability block); all
	// zero — and omitted — on failure-free cells, so legacy suite rows
	// stay byte-stable.
	Deaths             int     `json:"deaths,omitempty"`
	Recoveries         int     `json:"recoveries,omitempty"`
	DeadAtEnd          int     `json:"dead_at_end,omitempty"`
	StrandedPackets    int     `json:"stranded_packets,omitempty"`
	DeadNodeFraction   float64 `json:"dead_node_fraction,omitempty"`
	PartitionFraction  float64 `json:"partition_fraction,omitempty"`
	Rebargains         int     `json:"rebargains,omitempty"`
	DegradedRebargains int     `json:"degraded_rebargains,omitempty"`
}

// SuitePhase is one epoch of an adaptive cell: the phase's span, the
// load the bargain was re-played from, and the effective parameter
// vector the runtime deployed at the phase boundary.
type SuitePhase struct {
	Name     string  `json:"name,omitempty"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	MeanRate float64 `json:"mean_rate"`
	// Params is the effective vector deployed for the epoch (LMAC slot
	// raising applied, as for the cell-level Params).
	Params      []float64      `json:"params,omitempty"`
	SlotsRaised bool           `json:"slots_raised,omitempty"`
	Analytic    *SuiteAnalytic `json:"analytic,omitempty"`
	Err         string         `json:"error,omitempty"`
}

// SuiteCell is one (scenario, protocol) entry of a suite report: the
// requirements played, the bargained parameters, and the analytic and
// measured outcomes. Err records cells that could not be played (e.g. a
// delay bound no configuration meets) without aborting the suite.
//
// Params is always the effective vector the simulator ran — if LMAC
// slot raising applied, the raised vector, flagged by SlotsRaised.
//
// Adaptive cells carry the static-vs-adaptive comparison whole: Params,
// Analytic and StaticSim describe the one-shot bargain frozen for the
// full run, while Phases and Sim describe the re-bargaining runtime
// that re-plays the game at every phase boundary.
type SuiteCell struct {
	Scenario     string    `json:"scenario"`
	Protocol     Protocol  `json:"protocol"`
	EnergyBudget float64   `json:"energy_budget"`
	MaxDelay     float64   `json:"max_delay"`
	Params       []float64 `json:"params,omitempty"`
	// SlotsRaised marks LMAC cells whose slot count the suite raised to
	// the explicit network's minimum conflict-free schedule — the ring
	// approximation can under-provision slots for irregular topologies.
	SlotsRaised bool           `json:"slots_raised,omitempty"`
	Analytic    *SuiteAnalytic `json:"analytic,omitempty"`
	// Adaptive marks cells played by the online re-bargaining runtime;
	// Phases holds its per-epoch bargains and Sim its measured outcome,
	// with StaticSim the frozen-bargain baseline alongside.
	Adaptive  bool         `json:"adaptive,omitempty"`
	Phases    []SuitePhase `json:"phases,omitempty"`
	Sim       *SuiteSim    `json:"sim,omitempty"`
	StaticSim *SuiteSim    `json:"static_sim,omitempty"`
	Err       string       `json:"error,omitempty"`
}

// SuiteReport is the machine-readable outcome of a scenario×protocol
// matrix run. Equal inputs (specs, protocols, options) produce
// byte-identical JSON, which is what the golden-fixture CI job diffs.
type SuiteReport struct {
	Version   int             `json:"version"`
	Seed      int64           `json:"seed"`
	Duration  float64         `json:"duration"`
	Scenarios []SuiteScenario `json:"scenarios"`
	Protocols []Protocol      `json:"protocols"`
	Cells     []SuiteCell     `json:"cells"`
}

// JSON returns the canonical indented encoding of the report, ending in
// a newline. Field order is fixed by the struct layout and all floats
// marshal via Go's shortest-round-trip formatting, so equal reports
// encode identically on every platform.
func (r *SuiteReport) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RunSuite plays the full evaluation matrix — every scenario × every
// protocol — in parallel on a worker pool. Each cell maps the scenario
// onto its equivalent analytic ring model, bargains the protocol's
// parameters under the requirements, then replays the bargain at packet
// level on the explicit network under the scenario's traffic model
// (SCPMAC cells stay analytic-only). Cells are independent, so the
// matrix fans out over the pool with the same determinism contract as
// every parallel layer in this module: results are bit-identical to the
// sequential run and ordered scenario-major.
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
//
// Deprecated: use (*Client).Suite (or SuiteStream for incremental
// delivery); this wrapper delegates to the package-default client and
// behaves identically.
func RunSuite(ctx context.Context, specs []ScenarioSpec, protocols []Protocol, o SuiteOptions) (*SuiteReport, error) {
	return defaultClient().Suite(ctx, SuiteRequest{Scenarios: specs, Protocols: protocols, Options: o})
}

// runSuite is the matrix engine behind Suite and SuiteStream. onCell,
// when non-nil, observes every finished cell exactly once (serialized,
// completion order); a non-nil return cancels the remaining cells.
func (c *Client) runSuite(ctx context.Context, req SuiteRequest, onCell func(SuiteCell) error) (*SuiteReport, error) {
	ctx, err := ready(ctx)
	if err != nil {
		return nil, err
	}
	specs, protocols := req.Scenarios, req.Protocols
	if len(specs) == 0 {
		return nil, fmt.Errorf("edmac: suite needs at least one scenario")
	}
	if len(protocols) == 0 {
		return nil, fmt.Errorf("edmac: suite needs at least one protocol")
	}
	o := req.Options.withDefaults()
	o.Seed ^= c.baseSeed
	if o.Workers < 1 {
		o.Workers = c.workers
	}

	// Materialize every scenario once; cells share the immutable result.
	type matScenario struct {
		spec     scenario.Spec
		mat      *scenario.Materialized
		analytic Scenario
		minSlots int
	}
	mats := make([]matScenario, len(specs))
	needSlots := false
	for _, p := range protocols {
		if p == LMAC {
			needSlots = true
		}
	}
	for i, sp := range specs {
		if err := sp.valid(); err != nil {
			return nil, err
		}
		m, err := sp.spec.Materialize()
		if err != nil {
			return nil, err
		}
		an := analyticScenarioOf(m)
		// Phased.MeanRates blends over the *declared* phase totals; the
		// suite knows its actual run length, so the static bargain is
		// solved for the workload mix the run really plays — the last
		// phase stretched or trailing phases clipped by o.Duration.
		// At the default duration (= the declared total for builtins)
		// the two blends coincide.
		if ph, ok := m.Traffic.(traffic.Phased); ok {
			if r := realizedMeanRate(ph, m.Network, o.Duration); r > 0 {
				an.SampleInterval = 1 / r
			}
		}
		mats[i] = matScenario{spec: sp.spec, mat: m, analytic: an}
		if needSlots {
			mats[i].minSlots = m.Network.MinSlots()
		}
	}

	report := &SuiteReport{
		Version:   scenario.Version,
		Seed:      o.Seed,
		Duration:  o.Duration,
		Scenarios: make([]SuiteScenario, len(mats)),
		Protocols: append([]Protocol(nil), protocols...),
		Cells:     make([]SuiteCell, len(mats)*len(protocols)),
	}
	for i, ms := range mats {
		row := SuiteScenario{
			Name:        ms.spec.Name,
			Description: ms.spec.Description,
			Topology:    ms.spec.Topology.Kind,
			Traffic:     ms.spec.TrafficKind(),
			Nodes:       ms.mat.Network.N(),
			Depth:       ms.mat.Network.Depth(),
			MeanDegree:  ms.mat.Network.MeanDegree(),
			RingDepth:   ms.analytic.Depth,
			RingDensity: ms.analytic.Density,
			MeanRate:    ms.mat.MeanRate(),
		}
		if ms.mat.Network.Lossy() {
			row.Channel = ms.spec.ChannelKind()
			row.MeanLinkPRR = ms.mat.Network.MeanLinkPRR()
		}
		if ms.spec.Failures != nil {
			row.Failures = ms.spec.Failures.Model
		}
		if ms.spec.Battery != nil {
			row.BatteryJ = ms.spec.Battery.CapacityJ
		}
		report.Scenarios[i] = row
	}

	// Streaming gets its own cancellable context so a consumer error can
	// stop cells the pool hasn't started yet.
	cellCtx := ctx
	var cancel context.CancelCauseFunc
	if onCell != nil {
		cellCtx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
	}
	var mu sync.Mutex
	var streamErr error
	err = par.ForEach(cellCtx, len(report.Cells), o.Workers, func(idx int) {
		ms := mats[idx/len(protocols)]
		p := protocols[idx%len(protocols)]
		cell := runSuiteCell(cellCtx, ms.spec, ms.mat, ms.analytic, ms.minSlots, p, o)
		report.Cells[idx] = cell
		if onCell == nil {
			return
		}
		// Cells aborted by cancellation are not suite results — a plain
		// Suite call would discard the whole report — so they are never
		// delivered as if they were genuine per-cell failures.
		if cellCtx.Err() != nil {
			return
		}
		// Serialize delivery; after a consumer error nothing more is
		// delivered (cells already in flight still finish computing).
		mu.Lock()
		defer mu.Unlock()
		if streamErr != nil {
			return
		}
		if err := onCell(cell); err != nil {
			streamErr = err
			cancel(err)
		}
	})
	if streamErr != nil {
		return nil, streamErr
	}
	if err != nil {
		return nil, err
	}
	return report, nil
}

// runSuiteCell plays one (scenario, protocol) cell. A done ctx aborts
// the cell's simulations; the cell then carries the context error (the
// suite as a whole is abandoned anyway).
func runSuiteCell(ctx context.Context, spec scenario.Spec, mat *scenario.Materialized, analytic Scenario,
	minSlots int, p Protocol, o SuiteOptions) SuiteCell {
	maxDelay := o.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 3 + 1.2*float64(mat.Network.Depth())
	}
	cell := SuiteCell{
		Scenario:     spec.Name,
		Protocol:     p,
		EnergyBudget: o.EnergyBudget,
		MaxDelay:     maxDelay,
	}
	req := Requirements{EnergyBudget: o.EnergyBudget, MaxDelay: maxDelay}
	res, err := OptimizeRelaxed(p, analytic, req)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Params = res.Bargain.Params
	cell.Analytic = &SuiteAnalytic{
		Energy:         res.Bargain.Energy,
		Delay:          res.Bargain.Delay,
		Degenerate:     res.Degenerate,
		BudgetExceeded: res.BudgetExceeded,
	}
	// Two adaptation dimensions: per-phase re-bargaining follows the
	// workload's declared phases, on-death re-bargaining follows the
	// network's liveness. A spec opts into each through its adaptation
	// mode; o.Adaptive forces every dimension a scenario can express.
	phasedAdaptive := len(spec.Phases) > 0 &&
		(o.Adaptive || (spec.Adaptation != nil && spec.Adaptation.Mode == scenario.AdaptPerPhase))
	deathAdaptive := spec.Faulty() &&
		(o.Adaptive || (spec.Adaptation != nil && spec.Adaptation.Mode == scenario.AdaptOnDeath))
	adaptive := phasedAdaptive || deathAdaptive
	if adaptive {
		cell.Adaptive = true
	}
	if phasedAdaptive {
		cell.Phases = suitePhases(spec, mat, p, req, o.Duration, minSlots)
	}
	if p == SCPMAC {
		// Analytic-only protocol: the cell ends at the bargain (and,
		// when adaptive, the per-phase bargains).
		return cell
	}
	// Report the effective vector: what the simulator actually runs,
	// with LMAC slot raising applied — not the raw bargain.
	params, raised := effectiveParams(p, res.Bargain.Params, minSlots)
	cell.Params = params
	cell.SlotsRaised = raised
	capture, captureDB := spec.CaptureConfig()
	cfg := sim.Config{
		Protocol:  string(p),
		Network:   mat.Network,
		Radio:     mat.Radio,
		Params:    opt.Vector(params),
		Traffic:   mat.Traffic,
		Payload:   spec.Payload,
		Duration:  o.Duration,
		Seed:      suiteCellSeed(o.Seed, spec.Name, p),
		Capture:   capture,
		CaptureDB: captureDB,
	}
	cfg.Failures, cfg.Battery = faultConfigOf(spec)
	// Materialize the cell's immutable world once — neighbour tables,
	// link-PRR/gain tables, the LMAC slot plan and the full per-node
	// arrival schedules — and share it between the static baseline and
	// the adaptive re-run below, which differ in parameters only. A
	// failed materialization just falls back to per-run derivation; the
	// run itself will surface any real config error.
	if shared, err := sim.Materialize(cfg); err == nil {
		cfg.Shared = shared
	}
	simRes, err := sim.RunContext(ctx, cfg)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	static := suiteSimOf(simReportOf(p, params, cfg.Seed, mat.Network.Depth(), spec.Window, mat.Network, simRes))
	if !adaptive {
		cell.Sim = static
		return cell
	}
	// Adaptive runtime: deploy each phase's re-bargained vector at its
	// boundary (and, on faulty scenarios, re-bargain over the survivors
	// at every liveness epoch), on the same network, traffic and seed
	// the static baseline ran, so the two sims differ in parameters
	// only.
	cell.StaticSim = static
	var phases []sim.PhaseConfig
	if phasedAdaptive {
		phases = make([]sim.PhaseConfig, len(cell.Phases))
		for i, ph := range cell.Phases {
			if ph.Err != "" {
				cell.Err = fmt.Sprintf("adaptive phase %d: %s", i, ph.Err)
				return cell
			}
			phases[i] = sim.PhaseConfig{Params: opt.Vector(ph.Params), Until: ph.End}
		}
	}
	var adaptRes *sim.Result
	if spec.Faulty() {
		var reb sim.Rebargainer
		if deathAdaptive {
			reb, err = survivorRebargainer(mat, p, req, minSlots)
			if err != nil {
				cell.Err = err.Error()
				return cell
			}
		}
		adaptRes, err = sim.RunFaultyContext(ctx, cfg, phases, reb)
	} else {
		adaptRes, err = sim.RunPhasedContext(ctx, cfg, phases)
	}
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Sim = suiteSimOf(simReportOf(p, params, cfg.Seed, mat.Network.Depth(), spec.Window, mat.Network, adaptRes))
	return cell
}

// survivorRebargainer builds the degradation-aware hook a faulty
// adaptive cell hands the fault runner: adapt.ReplaySurvivors re-plays
// the bargain over the alive-reachable fragment, and the suite applies
// the same effective-vector convention (LMAC slot raising) it applies
// to every vector it deploys.
func survivorRebargainer(mat *scenario.Materialized, p Protocol, req Requirements, minSlots int) (sim.Rebargainer, error) {
	hook, err := adapt.ReplaySurvivors(mat, string(p),
		core.Requirements{EnergyBudget: req.EnergyBudget, MaxDelay: req.MaxDelay})
	if err != nil {
		return nil, err
	}
	return func(alive []bool, phase int, at float64) (opt.Vector, error) {
		v, err := hook(alive, phase, at)
		if err != nil {
			return nil, err
		}
		ev, _ := effectiveParams(p, v, minSlots)
		return opt.Vector(ev), nil
	}, nil
}

// suitePhases re-plays the bargain per phase via the adaptation
// controller and converts the plan into report rows with effective
// (slot-raised) parameter vectors.
func suitePhases(spec scenario.Spec, mat *scenario.Materialized, p Protocol,
	req Requirements, duration float64, minSlots int) []SuitePhase {
	plan, err := adapt.PlanPhases(mat, string(p),
		core.Requirements{EnergyBudget: req.EnergyBudget, MaxDelay: req.MaxDelay}, duration)
	if err != nil {
		// A planning failure (not a per-phase one) voids every phase.
		return []SuitePhase{{Err: err.Error()}}
	}
	out := make([]SuitePhase, len(plan.Phases))
	for i, pp := range plan.Phases {
		row := SuitePhase{
			Name:     spec.Phases[pp.Index].Name,
			Start:    pp.Start,
			End:      pp.End,
			MeanRate: pp.MeanRate,
		}
		if pp.Err != nil {
			row.Err = pp.Err.Error()
			out[i] = row
			continue
		}
		row.Params, row.SlotsRaised = effectiveParams(p, pp.Tradeoff.Bargain.Params, minSlots)
		row.Analytic = &SuiteAnalytic{
			Energy:         pp.Tradeoff.Bargain.Energy,
			Delay:          pp.Tradeoff.Bargain.Delay,
			Degenerate:     pp.Tradeoff.Degenerate,
			BudgetExceeded: pp.Tradeoff.BudgetExceeded,
		}
		out[i] = row
	}
	return out
}

// realizedMeanRate returns the duration-weighted mean per-node rate of
// the phase windows a run of the given length actually realizes.
func realizedMeanRate(ph traffic.Phased, net *topology.Network, duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	total := 0.0
	for k, win := range ph.Windows(duration) {
		d := win.Duration()
		if d <= 0 {
			continue
		}
		total += d * traffic.MeanNonSinkRate(ph.Phases[k].Model.MeanRates(net))
	}
	return total / duration
}

// effectiveParams returns the vector the simulator actually runs: a
// copy of the bargained parameters with LMAC's slot count raised to the
// explicit network's minimum conflict-free schedule when the ring
// approximation under-provisioned it. The second result reports whether
// raising applied.
func effectiveParams(p Protocol, bargain []float64, minSlots int) ([]float64, bool) {
	params := append([]float64(nil), bargain...)
	if p == LMAC && len(params) > 0 && int(math.Round(params[0])) < minSlots {
		params[0] = float64(minSlots)
		return params, true
	}
	return params, false
}

// suiteSimOf boxes a SimReport into the suite's measured-side row.
func suiteSimOf(rep SimReport) *SuiteSim {
	return &SuiteSim{
		Seed:             rep.Seed,
		Nodes:            rep.Nodes,
		Generated:        rep.Generated,
		Delivered:        rep.Delivered,
		Duplicates:       rep.Duplicates,
		Dropped:          rep.Dropped,
		Collisions:       rep.Collisions,
		ChannelLosses:    rep.ChannelLosses,
		Captures:         rep.Captures,
		DeliveryRatio:    rep.DeliveryRatio,
		MeanDelay:        finiteOrNil(rep.MeanDelay),
		P95Delay:         finiteOrNil(rep.P95Delay),
		OuterRingDelay:   finiteOrNil(rep.OuterRingDelay),
		BottleneckEnergy: rep.BottleneckEnergy,

		Deaths:             rep.Deaths,
		Recoveries:         rep.Recoveries,
		DeadAtEnd:          rep.DeadAtEnd,
		StrandedPackets:    rep.StrandedPackets,
		DeadNodeFraction:   rep.DeadNodeFraction,
		PartitionFraction:  rep.PartitionFraction,
		Rebargains:         rep.Rebargains,
		DegradedRebargains: rep.DegradedRebargains,
	}
}

// suiteCellSeed derives a cell's simulation seed from the base seed and
// the cell's identity, so cells are mutually decorrelated yet stable
// under registry reordering. The identity is hashed in an unambiguous
// encoding: both components are escaped ('\' → '\\', '/' → '\/') before
// the '/' join, so distinct (scenario, protocol) pairs can never
// collide even when scenario names contain '/'. Names free of both
// bytes hash exactly as the historical unescaped form, which keeps
// committed goldens stable.
func suiteCellSeed(base int64, scenarioName string, p Protocol) int64 {
	h := fnv.New64a()
	writeEscaped(h, scenarioName)
	h.Write([]byte{'/'})
	writeEscaped(h, string(p))
	return base ^ int64(h.Sum64())
}

// writeEscaped writes s with '\' and '/' backslash-escaped, making the
// separator-joined concatenation uniquely decodable.
func writeEscaped(w io.Writer, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '/' {
			w.Write([]byte(s[start:i]))
			w.Write([]byte{'\\', c})
			start = i + 1
		}
	}
	w.Write([]byte(s[start:]))
}

// finiteOrNil is the shared non-finite-scrubbing rule; the serve layer
// uses the same one, so every JSON surface agrees.
var finiteOrNil = jsonwire.FiniteOrNil

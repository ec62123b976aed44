// Package edmac balances energy consumption against end-to-end packet
// delay in duty-cycled wireless sensor network MAC protocols, using the
// cooperative-game framework of Doudou et al., "Game Theoretical
// Approach for Energy-Delay Balancing in Distributed Duty-Cycled MAC
// Protocols of Wireless Networks" (PODC 2014).
//
// Given an application's requirements — an energy budget per node and a
// maximum tolerated end-to-end delay — the framework computes, for a
// chosen protocol (X-MAC, DMAC, LMAC, B-MAC, or SCP-MAC):
//
//   - the energy-optimal configuration (problem P1),
//   - the delay-optimal configuration (problem P2), and
//   - the Nash Bargaining Solution (problems P3/P4): the fair compromise
//     between the two virtual players Energy and Delay, together with
//     the concrete MAC parameters that realize it.
//
// A packet-level discrete-event simulator (Client.Simulate) replays
// any configuration on an explicit network and cross-checks the analytic
// models.
//
// The entry point is the Client, constructed with functional options
// and exposing the whole pipeline as (ctx, Request) → (Report, error):
//
//	client, err := edmac.NewClient(edmac.WithCache(edmac.DefaultCacheSize))
//	if err != nil { ... }
//	rep, err := client.Optimize(ctx, edmac.OptimizeRequest{
//	    Protocol:     edmac.XMAC,
//	    Requirements: edmac.Requirements{EnergyBudget: 0.06, MaxDelay: 6},
//	})
//	if err != nil { ... }
//	fmt.Println(rep.Result.Bargain.Params) // wakeup interval to deploy
//
// cmd/edserve serves the same Client API over HTTP/JSON.
package edmac

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
)

// Protocol identifies a supported duty-cycled MAC protocol.
type Protocol string

// The supported protocols. XMAC, DMAC and LMAC are the three the paper
// evaluates; BMAC (classic low-power listening) and SCPMAC (scheduled
// channel polling, the fourth duty-cycling category from the paper's
// related work) are extensions demonstrating the framework's
// protocol-agnosticism.
const (
	XMAC   Protocol = "xmac"
	DMAC   Protocol = "dmac"
	LMAC   Protocol = "lmac"
	BMAC   Protocol = "bmac"
	SCPMAC Protocol = "scpmac"
)

// Protocols lists every supported protocol in presentation order.
func Protocols() []Protocol {
	return []Protocol{XMAC, DMAC, LMAC, BMAC, SCPMAC}
}

// PaperProtocols lists the three protocols of the paper's evaluation.
func PaperProtocols() []Protocol {
	return []Protocol{XMAC, DMAC, LMAC}
}

// ErrInfeasible reports that no parameter setting of the protocol meets
// the stated requirements; test with errors.Is.
var ErrInfeasible = nbs.ErrInfeasible

// Scenario describes the deployment the models are evaluated in. The
// JSON tags define the wire form the edserve request schema uses.
type Scenario struct {
	// Depth is the number of rings D: the farthest nodes are D hops from
	// the sink.
	Depth int `json:"depth"`
	// Density is the unit-disk neighbourhood density C.
	Density int `json:"density"`
	// SampleInterval is the time between application samples per node,
	// in seconds (the inverse of the paper's Fs).
	SampleInterval float64 `json:"sample_interval"`
	// Window is the energy-accounting window in seconds; reported
	// energies are joules per window at the bottleneck node.
	Window float64 `json:"window"`
	// Payload is the application payload in bytes.
	Payload int `json:"payload"`
	// Radio names the transceiver profile: "cc2420" or "cc1101".
	Radio string `json:"radio"`
	// LinkPRR is the per-link packet reception ratio the analytic models
	// assume on every hop. The zero value means 1 (perfect links); below
	// 1 the models charge each hop the expected retransmission attempts,
	// so the bargain reacts to link quality.
	LinkPRR float64 `json:"link_prr,omitempty"`
}

// DefaultScenario returns the calibrated scenario of the paper
// reproduction: a depth-5, density-6 CC2420 network sampling once per
// 10 hours, with energy accounted per minute.
func DefaultScenario() Scenario {
	env := macmodel.Default()
	return Scenario{
		Depth:          env.Rings.Depth,
		Density:        env.Rings.Density,
		SampleInterval: 1 / env.SampleRate,
		Window:         env.Window,
		Payload:        env.Payload,
		Radio:          env.Radio.Name,
	}
}

// env converts the scenario into the internal model environment.
func (s Scenario) env() (macmodel.Env, error) {
	prof, err := radio.Profile(s.Radio)
	if err != nil {
		return macmodel.Env{}, err
	}
	if s.SampleInterval <= 0 {
		return macmodel.Env{}, fmt.Errorf("edmac: sample interval %v must be positive", s.SampleInterval)
	}
	env := macmodel.Env{
		Radio:      prof,
		Rings:      topology.RingModel{Depth: s.Depth, Density: s.Density},
		SampleRate: 1 / s.SampleInterval,
		Window:     s.Window,
		Payload:    s.Payload,
		LinkPRR:    s.LinkPRR,
	}
	if err := env.Validate(); err != nil {
		return macmodel.Env{}, err
	}
	return env, nil
}

// model builds the analytic model for a protocol under the scenario.
func (s Scenario) model(p Protocol) (macmodel.Model, error) {
	env, err := s.env()
	if err != nil {
		return nil, err
	}
	return macmodel.New(string(p), env)
}

// Requirements are the application inputs of the game.
type Requirements struct {
	// EnergyBudget is Ebudget: joules per window the bottleneck node may
	// spend.
	EnergyBudget float64 `json:"energy_budget"`
	// MaxDelay is Lmax: the end-to-end delay bound in seconds.
	MaxDelay float64 `json:"max_delay"`
}

// PaperRequirements returns the headline requirement pair of the paper's
// figures: Ebudget = 0.06 J, Lmax = 6 s.
func PaperRequirements() Requirements {
	return Requirements{EnergyBudget: core.PaperEnergyBudget, MaxDelay: core.PaperMaxDelay}
}

// ParamSpec documents one tunable protocol parameter.
type ParamSpec struct {
	// Name identifies the parameter (e.g. "wakeup-interval").
	Name string `json:"name"`
	// Unit is its physical unit (e.g. "s").
	Unit string `json:"unit"`
	// Min and Max delimit the admissible range.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// paramSpecs builds the parameter table behind Client.Params.
func paramSpecs(p Protocol, s Scenario) ([]ParamSpec, error) {
	m, err := s.model(p)
	if err != nil {
		return nil, err
	}
	specs := m.Params()
	out := make([]ParamSpec, len(specs))
	for i, sp := range specs {
		out[i] = ParamSpec{Name: sp.Name, Unit: sp.Unit, Min: sp.Min, Max: sp.Max}
	}
	return out, nil
}

// OperatingPoint is a concrete protocol configuration with its metrics.
type OperatingPoint struct {
	// Params is the protocol parameter vector (see Client.Params for
	// meaning).
	Params []float64 `json:"params"`
	// Energy is joules per window at the bottleneck node.
	Energy float64 `json:"energy"`
	// Delay is the worst-case expected end-to-end delay in seconds.
	Delay float64 `json:"delay"`
}

// Result is the outcome of playing the energy-delay game.
type Result struct {
	// Protocol echoes the protocol played.
	Protocol Protocol `json:"protocol"`
	// Requirements echoes the application inputs.
	Requirements Requirements `json:"requirements"`
	// EnergyOptimal is the P1 solution: (Ebest, Lworst).
	EnergyOptimal OperatingPoint `json:"energy_optimal"`
	// DelayOptimal is the P2 solution: (Eworst, Lbest).
	DelayOptimal OperatingPoint `json:"delay_optimal"`
	// WorstEnergy and WorstDelay form the disagreement (threat) point.
	WorstEnergy float64 `json:"worst_energy"`
	WorstDelay  float64 `json:"worst_delay"`
	// Bargain is the Nash Bargaining Solution — the configuration the
	// framework recommends deploying.
	Bargain OperatingPoint `json:"bargain"`
	// FairnessEnergy and FairnessDelay are the proportional-fairness
	// coordinates of the bargain (equal on linear frontiers).
	FairnessEnergy float64 `json:"fairness_energy"`
	FairnessDelay  float64 `json:"fairness_delay"`
	// Degenerate reports that the game offered no strict joint
	// improvement over the disagreement point.
	Degenerate bool `json:"degenerate,omitempty"`
	// BudgetExceeded reports (relaxed mode only) that the requirements
	// were jointly unattainable and Bargain is the best-effort point
	// honouring MaxDelay while exceeding EnergyBudget.
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
}

// optimize plays the game once, without a cache: strict, or relaxed to
// the figures' best-effort behaviour.
func optimize(p Protocol, s Scenario, r Requirements, relaxed bool) (Result, error) {
	m, err := s.model(p)
	if err != nil {
		return Result{}, err
	}
	req := core.Requirements{EnergyBudget: r.EnergyBudget, MaxDelay: r.MaxDelay}
	var tr core.Tradeoff
	if relaxed {
		tr, err = core.OptimizeRelaxed(m, req)
	} else {
		tr, err = core.Optimize(m, req)
	}
	if err != nil {
		return Result{}, err
	}
	return resultOf(p, r, tr), nil
}

func resultOf(p Protocol, r Requirements, tr core.Tradeoff) Result {
	return Result{
		Protocol:       p,
		Requirements:   r,
		EnergyOptimal:  opOf(tr.EnergyOptimal),
		DelayOptimal:   opOf(tr.DelayOptimal),
		WorstEnergy:    tr.WorstEnergy,
		WorstDelay:     tr.WorstDelay,
		Bargain:        opOf(tr.Bargain),
		FairnessEnergy: tr.FairnessEnergy,
		FairnessDelay:  tr.FairnessDelay,
		Degenerate:     tr.Degenerate,
		BudgetExceeded: tr.BudgetExceeded,
	}
}

func opOf(pt core.OperatingPoint) OperatingPoint {
	return OperatingPoint{Params: []float64(pt.Params.Clone()), Energy: pt.Energy, Delay: pt.Delay}
}

// FrontierPoint is one point of a protocol's energy-delay Pareto curve.
type FrontierPoint struct {
	Params []float64 `json:"params"`
	Energy float64   `json:"energy"`
	Delay  float64   `json:"delay"`
}

// frontier is the uncached frontier tracer behind Client.Frontier,
// cancellable at point granularity.
func frontier(ctx context.Context, p Protocol, s Scenario, r Requirements, n int) ([]FrontierPoint, error) {
	m, err := s.model(p)
	if err != nil {
		return nil, err
	}
	pts, err := core.FrontierContext(ctx, m, core.Requirements{EnergyBudget: r.EnergyBudget, MaxDelay: r.MaxDelay}, n)
	if err != nil {
		return nil, err
	}
	out := make([]FrontierPoint, len(pts))
	for i, pt := range pts {
		out[i] = FrontierPoint{Params: []float64(pt.X.Clone()), Energy: pt.A, Delay: pt.B}
	}
	return out, nil
}

// Comparison is one protocol's entry in a Compare run. Err is non-nil
// (wrapping ErrInfeasible) for protocols that cannot meet the
// requirements even in relaxed mode — failed protocols are reported,
// never silently dropped, so a comparison always has one entry per
// protocol played.
type Comparison struct {
	Protocol Protocol
	Result   Result
	Err      error
}

// MarshalJSON encodes the comparison with Err surfaced as its message
// string (the error interface itself has no useful JSON form), so wire
// consumers see infeasible protocols explicitly.
func (c Comparison) MarshalJSON() ([]byte, error) {
	w := struct {
		Protocol Protocol `json:"protocol"`
		Result   *Result  `json:"result,omitempty"`
		Error    string   `json:"error,omitempty"`
	}{Protocol: c.Protocol}
	if c.Err != nil {
		w.Error = c.Err.Error()
	} else {
		w.Result = &c.Result
	}
	return json.Marshal(w)
}

// Best returns the comparison entry whose bargain has the lowest energy
// among those meeting the requirements outright, or false when none do.
func Best(comparisons []Comparison) (Comparison, bool) {
	var best Comparison
	found := false
	for _, c := range comparisons {
		if c.Err != nil || c.Result.BudgetExceeded || c.Result.Degenerate {
			continue
		}
		if !found || c.Result.Bargain.Energy < best.Result.Bargain.Energy {
			best = c
			found = true
		}
	}
	return best, found
}

// vec converts a public parameter slice into the internal vector,
// checking arity against the protocol's specification.
func vec(m macmodel.Model, params []float64) (opt.Vector, error) {
	if len(params) != len(m.Params()) {
		return nil, fmt.Errorf("edmac: %s expects %d parameters, got %d",
			m.Name(), len(m.Params()), len(params))
	}
	return opt.Vector(append([]float64(nil), params...)), nil
}

// evaluate is the model evaluation behind Client.Evaluate.
func evaluate(p Protocol, s Scenario, params []float64) (energy, delay float64, err error) {
	m, err := s.model(p)
	if err != nil {
		return 0, 0, err
	}
	x, err := vec(m, params)
	if err != nil {
		return 0, 0, err
	}
	if !m.Bounds().Contains(x) {
		return 0, 0, fmt.Errorf("edmac: parameters %v outside the admissible box", params)
	}
	return m.Energy(x), m.Delay(x), nil
}

// Package adapt is the online re-bargaining controller: it re-plays the
// Nash bargaining game of internal/core once per traffic phase of a
// non-stationary scenario, producing the per-epoch MAC parameter
// vectors an adaptive runtime (sim.RunPhasedContext) deploys at the
// phase boundaries.
//
// The controller closes the loop the paper motivates but plays offline:
// when the workload shifts, the old bargain sits at the wrong point of
// the energy-delay frontier, so the game is re-solved from the new
// phase's mean rates while the deployment keeps running. The static
// bargain — one solve from the long-run mean — is the baseline the
// adaptive plan is compared against.
package adapt

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// PhasePlan is one epoch of an adaptive plan: the phase's span, the
// load the controller re-bargained from, and the resulting trade-off.
type PhasePlan struct {
	// Index is the phase's position in the scenario's phase list.
	Index int
	// Start and End delimit the epoch in absolute run seconds.
	Start, End float64
	// MeanRate is the phase's mean per-node generation rate in packets
	// per second over the non-sink nodes — the sampling rate the game
	// was re-played with.
	MeanRate float64
	// Tradeoff is the re-played game's outcome; its Bargain carries the
	// parameter vector to deploy for this epoch.
	Tradeoff core.Tradeoff
	// Err records a phase whose game could not be played (e.g. a load
	// outside the model's admissible range) without voiding the plan's
	// other phases.
	Err error
}

// Plan is a full adaptive schedule for one (scenario, protocol) pair.
type Plan struct {
	// Phases holds one entry per phase window the run reaches, in
	// chronological order.
	Phases []PhasePlan
}

// PlanPhases re-plays the bargain once per phase of a materialized
// phased scenario: phase k's game is built from the same equivalent
// ring, radio, window and payload as the static bridge, but with the
// sampling rate taken from phase k's own mean rates rather than the
// long-run blend. duration is the run length the plan must cover;
// windows the run never reaches are omitted.
//
// The scenario's traffic must be a traffic.Phased model; anything else
// has a single stationary phase and nothing to adapt to.
func PlanPhases(m *scenario.Materialized, protocol string, req core.Requirements, duration float64) (*Plan, error) {
	if m == nil {
		return nil, fmt.Errorf("adapt: nil scenario")
	}
	phased, ok := m.Traffic.(traffic.Phased)
	if !ok {
		return nil, fmt.Errorf("adapt: scenario %s has stationary %q traffic, nothing to adapt to",
			m.Spec.Name, m.Traffic.Kind())
	}
	if duration <= 0 {
		return nil, fmt.Errorf("adapt: duration %v must be positive", duration)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{}
	for k, win := range phased.Windows(duration) {
		if win.Duration() <= 0 {
			continue
		}
		pp := PhasePlan{Index: k, Start: win.Start, End: win.End}
		pp.MeanRate = traffic.MeanNonSinkRate(phased.Phases[k].Model.MeanRates(m.Network))
		pp.Tradeoff, pp.Err = replay(protocol, m, pp.MeanRate, req)
		plan.Phases = append(plan.Phases, pp)
	}
	if len(plan.Phases) == 0 {
		return nil, fmt.Errorf("adapt: scenario %s has no phase inside a %v s run", m.Spec.Name, duration)
	}
	return plan, nil
}

// replay solves one phase's game in relaxed mode — a surge that makes
// the budget unattainable should deploy the best-effort point, flagged,
// rather than abort the runtime.
func replay(protocol string, m *scenario.Materialized, rate float64, req core.Requirements) (core.Tradeoff, error) {
	model, err := buildModel(protocol, m, m.EquivalentRing(), rate)
	if err != nil {
		return core.Tradeoff{}, err
	}
	return core.OptimizeRelaxed(model, req)
}

// buildModel constructs the analytic model a game over the scenario's
// radio and link quality is played on: a phase's game over the
// equivalent ring, or a survivor game over the alive fragment's ring.
func buildModel(protocol string, m *scenario.Materialized, ring topology.RingModel, rate float64) (macmodel.Model, error) {
	env := macmodel.Env{
		Radio:      m.Radio,
		Rings:      ring,
		SampleRate: rate,
		Window:     m.Spec.Window,
		Payload:    m.Spec.Payload,
	}
	// Per-phase games feel link quality exactly like the static bridge:
	// the network's mean link PRR (1, i.e. unset, on perfect channels).
	if prr := m.Network.MeanLinkPRR(); prr < 1 {
		env.LinkPRR = prr
	}
	return macmodel.New(protocol, env)
}

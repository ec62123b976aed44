package adapt

import (
	"fmt"
	"math"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// ReplaySurvivors returns a degradation-aware re-bargaining hook with
// the signature of sim.Rebargainer: at every liveness epoch of a
// fault-injected run it re-plays the Nash bargain over the surviving
// topology instead of the full network the static vector was bargained
// for.
//
// The surviving topology is the alive-reachable fragment of the
// routing tree (topology.Network.SurvivorStats): nodes behind a dead
// relay cannot deliver whatever the MAC does, so they are excluded
// from the equivalent ring the game is re-played on. The fragment's
// depth and induced mean degree replace the full network's, the
// sampling rate is the active phase's (falling back to the long-run
// mean for stationary traffic), and the game is solved in relaxed mode
// — degradation should deploy the best-effort point, flagged, not
// abort the runtime.
//
// Degradation also tightens the energy requirement: the effective
// budget is the application's scaled by the survivor fraction (floored
// at a quarter so a decimated network still gets a playable game).
// Deaths mean the survivors must stretch their batteries to keep the
// deployment reporting, so the bargain's feasible set shrinks toward
// the energy axis and the re-played game lands on a thriftier point —
// the defensive posture that slows battery attrition. A full-liveness
// call leaves the requirement untouched and reproduces the static
// bargain exactly.
//
// An epoch whose fragment is empty (the sink cut off from everything)
// returns an error; the fault runner then degrades to the last-good
// vector, which is the documented convention for infeasible
// re-bargains.
func ReplaySurvivors(m *scenario.Materialized, protocol string, req core.Requirements) (func(alive []bool, phase int, at float64) (opt.Vector, error), error) {
	if m == nil {
		return nil, fmt.Errorf("adapt: nil scenario")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Probe the full-topology game once so an unusable (protocol,
	// scenario) pairing fails at plan time, not mid-run.
	if _, err := replay(protocol, m, m.MeanRate(), req); err != nil {
		return nil, err
	}
	phased, _ := m.Traffic.(traffic.Phased)
	meanRate := m.MeanRate() // hoisted: the stationary fallback is epoch-invariant
	return func(alive []bool, phase int, at float64) (opt.Vector, error) {
		st := m.Network.SurvivorStats(alive)
		if st.Reachable == 0 {
			return nil, fmt.Errorf("adapt: no node can reach the sink at t=%v", at)
		}
		density := int(math.Round(st.MeanDegree))
		if density < 1 {
			density = 1
		}
		rate := meanRate
		if phased.Phases != nil && phase >= 0 && phase < len(phased.Phases) {
			rate = traffic.MeanNonSinkRate(phased.Phases[phase].Model.MeanRates(m.Network))
		}
		effReq := req
		if frac := float64(st.Reachable) / float64(m.Network.N()-1); frac < 1 {
			effReq.EnergyBudget = req.EnergyBudget * math.Max(frac, 0.25)
		}
		model, err := buildModel(protocol, m, topology.RingModel{Depth: st.Depth, Density: density}, rate)
		if err != nil {
			return nil, err
		}
		res, err := core.OptimizeRelaxed(model, effReq)
		if err != nil {
			return nil, err
		}
		return res.Bargain.Params, nil
	}, nil
}

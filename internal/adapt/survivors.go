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
//
// The hook solves each distinct set of model inputs — survivor depth,
// rounded density, the phase's rate and the effective budget — once,
// and answers a repeat with a copy of that solve's vector (or its
// error): churn revisits the same fragments epoch after epoch. The
// memo has no lock, because a hook serves one run, and a run calls it
// from the one goroutine that drives the simulation.
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
	type inputs struct {
		ring         topology.RingModel
		rate, budget float64
	}
	type solve struct {
		params opt.Vector
		err    error
	}
	memo := map[inputs]solve{}
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
		in := inputs{topology.RingModel{Depth: st.Depth, Density: density}, rate, effReq.EnergyBudget}
		sv, ok := memo[in]
		if !ok {
			sv.params, sv.err = solveSurvivors(protocol, m, in.ring, rate, effReq)
			memo[in] = sv
		}
		if sv.err != nil {
			return nil, sv.err
		}
		return append(opt.Vector(nil), sv.params...), nil
	}, nil
}

// solveSurvivors plays the relaxed game on the survivors' equivalent
// ring.
func solveSurvivors(protocol string, m *scenario.Materialized, ring topology.RingModel, rate float64, req core.Requirements) (opt.Vector, error) {
	model, err := buildModel(protocol, m, ring, rate)
	if err != nil {
		return nil, err
	}
	res, err := core.OptimizeRelaxed(model, req)
	if err != nil {
		return nil, err
	}
	return res.Bargain.Params, nil
}

package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// Components decomposes a node's per-window energy the way the paper
// does: E = Ecs + Etx + Erx + Eovr + Estx + Esrx. Sleep is kept as an
// explicit extra component so that totals reflect the whole window; it
// is orders of magnitude below the active terms. All values are joules
// per accounting window.
type Components struct {
	// CarrierSense is channel polling / idle listening (Ecs).
	CarrierSense float64
	// Tx is data transmission including preambles and contention (Etx).
	Tx float64
	// Rx is data reception including handshake replies (Erx).
	Rx float64
	// Overhear is energy spent on frames addressed to other nodes (Eovr).
	Overhear float64
	// SyncTx is schedule-synchronization transmission (Estx).
	SyncTx float64
	// SyncRx is schedule-synchronization reception (Esrx).
	SyncRx float64
	// Sleep is the residual window time spent in the sleep state.
	Sleep float64
}

// total is the one summation of a node's energy components, in the
// order of the Components fields. Each model's Energy adds its scalar
// components through it, so Energy(x) is bit for bit the sum of
// EnergyAt(x, ring)'s fields at the bottleneck ring.
func total(cs, tx, rx, ovr, stx, srx, sleep float64) float64 {
	return cs + tx + rx + ovr + stx + srx + sleep
}

// ParamSpec documents one tunable MAC parameter and its admissible range.
type ParamSpec struct {
	// Name identifies the parameter, e.g. "wakeup-interval".
	Name string
	// Unit is the physical unit, e.g. "s" or "slots".
	Unit string
	// Min and Max delimit the admissible values.
	Min, Max float64
}

// Model is a closed-form energy/latency model of one MAC protocol,
// evaluated against its Env. Implementations must be safe for concurrent
// use (they are immutable after construction) and total over the bounds
// box: solvers call Energy and Delay densely.
type Model interface {
	// Name returns the protocol name ("xmac", "dmac", "lmac", "bmac").
	Name() string
	// Params documents the tunable parameter vector, in order.
	Params() []ParamSpec
	// Bounds returns the admissible box for the parameter vector.
	Bounds() opt.Bounds
	// Structural returns protocol feasibility constraints coupling the
	// parameters (satisfied when <= 0), e.g. DMAC's "the wakeup ladder
	// must fit in the frame".
	Structural() []opt.Constraint
	// EnergyAt returns the per-window energy components of a node at the
	// given ring for parameter vector x.
	EnergyAt(x opt.Vector, ring int) Components
	// Energy returns the system energy metric: the per-window energy of
	// the bottleneck (ring-1) node, in joules.
	Energy(x opt.Vector) float64
	// Delay returns the system latency metric: the expected end-to-end
	// delay of a ring-D packet, in seconds.
	Delay(x opt.Vector) float64
}

// New constructs the named protocol model for the environment.
// Recognized names: "xmac", "dmac", "lmac", "bmac", "scpmac".
func New(name string, env Env) (Model, error) {
	switch name {
	case "xmac":
		return NewXMAC(env)
	case "dmac":
		return NewDMAC(env)
	case "lmac":
		return NewLMAC(env)
	case "bmac":
		return NewBMAC(env)
	case "scpmac":
		return NewSCPMAC(env)
	default:
		return nil, fmt.Errorf("macmodel: unknown protocol %q (want xmac, dmac, lmac, bmac or scpmac)", name)
	}
}

// Names lists the protocols New accepts, in presentation order: the
// paper's three first, then the framework extensions.
func Names() []string { return []string{"xmac", "dmac", "lmac", "bmac", "scpmac"} }

// ringTerms are the parts of a ring-d node's energy formula that depend
// on its traffic but not on the parameter vector. Each model computes
// them once per ring, with the expressions its formula would otherwise
// evaluate at every point, and fills the fields its formula reads.
type ringTerms struct {
	// wOut, wIn and wBg are the window times the transmit, receive and
	// overheard rates, expected attempts included.
	wOut, wIn, wBg float64
	// tx, rx and ovr are energy components, and txTime, rxTime and
	// ovrTime the awake time they cost, where those are fixed.
	tx, rx, ovr             float64
	txTime, rxTime, ovrTime float64
}

// windowLoad returns the ring's wOut, wIn and wBg: every flow-driven
// term repeats per attempt, so lossy links scale all three.
func windowLoad(env Env, flows traffic.RingFlows, attempts float64, ring int) ringTerms {
	w := env.Window
	return ringTerms{
		wOut: w * (attempts * flows.Out(ring)),
		wIn:  w * (attempts * flows.In(ring)),
		wBg:  w * (attempts * flows.Background(ring)),
	}
}

// boundsOf assembles the opt search box from parameter specs.
func boundsOf(specs []ParamSpec) opt.Bounds {
	lo := make(opt.Vector, len(specs))
	hi := make(opt.Vector, len(specs))
	for i, s := range specs {
		lo[i], hi[i] = s.Min, s.Max
	}
	return opt.Bounds{Lo: lo, Hi: hi}
}

// validateSpecs sanity-checks a model's parameter table at construction.
func validateSpecs(name string, specs []ParamSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("macmodel: %s has no parameters", name)
	}
	for _, s := range specs {
		if !(s.Min < s.Max) {
			return fmt.Errorf("macmodel: %s parameter %q has empty range [%v, %v]", name, s.Name, s.Min, s.Max)
		}
		if s.Min <= 0 {
			return fmt.Errorf("macmodel: %s parameter %q must have positive minimum, got %v", name, s.Name, s.Min)
		}
	}
	return nil
}

package sim

import (
	"context"
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
)

// PhaseConfig is one epoch of a phased run: the MAC parameter vector in
// force until the absolute instant Until.
type PhaseConfig struct {
	// Params is the protocol parameter vector (macmodel coordinates)
	// deployed for this epoch.
	Params opt.Vector
	// Until is the epoch's absolute end time in seconds; the last
	// phase's Until must equal the run duration.
	Until float64
}

// RunPhasedContext executes a simulation whose MAC parameter vector
// changes at phase boundaries — the runtime half of adaptive
// re-bargaining: an adaptation controller re-plays the Nash bargain per
// traffic phase and this runner deploys each phase's vector in sequence.
//
// At every boundary the engine quiesces: pending events of the old
// regime are dropped, the channel is cleared (frames mid-air at the
// instant of the swap are lost, exactly as a real reconfiguration would
// lose them), and a fresh MAC layer with the next vector is installed
// over the same per-node state. Forwarding queues, per-node randomness
// streams, metrics and energy accounting all carry across the swap —
// no queued packet and no joule is dropped. Arrivals in (previous
// boundary, Until] belong to a phase; an arrival exactly on the boundary
// still fires under the old regime (the engine processes events at the
// horizon), and its packet rides the queue into the next one.
// cfg.Params is ignored; cfg.Traffic must be set (phased runs replay a
// precomputed schedule, typically a traffic.Phased model aligned with
// the same boundaries). A config that injects failures runs under
// RunFaultyContext's contract.
//
// A one-phase call reproduces RunContext bit for bit — same events, same
// instants, same metrics. Equal (cfg, phases) reproduce the run exactly,
// and ctx follows RunContext's cancellation contract.
func RunPhasedContext(ctx context.Context, cfg Config, phases []PhaseConfig) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("sim: phased run needs at least one phase")
	}
	if cfg.faulty() {
		return RunFaultyContext(ctx, cfg, phases, nil)
	}
	if cfg.Traffic == nil {
		return nil, fmt.Errorf("sim: phased run needs a traffic model")
	}
	if err := validatePhases(cfg, phases); err != nil {
		return nil, err
	}
	return newRunner(cfg, phases, phasedRun, nil).run(ctx)
}

// validatePhases checks that the phases end strictly in order, the last
// one at the run duration, and that every phase's vector obeys the same
// arity and positivity rules as a fixed run's.
func validatePhases(cfg Config, phases []PhaseConfig) error {
	prev := 0.0
	for i, ph := range phases {
		if ph.Until <= prev {
			return fmt.Errorf("sim: phase %d ends at %v, not after %v", i, ph.Until, prev)
		}
		prev = ph.Until
		probe := cfg
		probe.Params = ph.Params
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("sim: phase %d: %w", i, err)
		}
	}
	if last := phases[len(phases)-1].Until; last != cfg.Duration {
		return fmt.Errorf("sim: last phase ends at %v, want the run duration %v", last, cfg.Duration)
	}
	return nil
}

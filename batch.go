package edmac

import (
	"context"
	"encoding/json"

	"github.com/edmac-project/edmac/internal/par"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/sim"
)

// BatchRun describes one simulation of a batch: a protocol, its
// parameter vector and the run options (duration, seed).
type BatchRun struct {
	Protocol Protocol   `json:"protocol"`
	Params   []float64  `json:"params"`
	Options  SimOptions `json:"options,omitempty"`
}

// BatchOutcome is one BatchRun's result. Err is non-nil when the run
// could not be configured or executed; Report is valid otherwise.
type BatchOutcome struct {
	Run    BatchRun
	Report SimReport
	Err    error
}

// MarshalJSON encodes the outcome with Err surfaced as its message
// string (as Comparison does), so wire consumers see failed runs
// explicitly instead of a zero report.
func (o BatchOutcome) MarshalJSON() ([]byte, error) {
	w := struct {
		Run    BatchRun   `json:"run"`
		Report *SimReport `json:"report,omitempty"`
		Error  string     `json:"error,omitempty"`
	}{Run: o.Run}
	if o.Err != nil {
		w.Error = o.Err.Error()
	} else {
		w.Report = &o.Report
	}
	return json.Marshal(w)
}

// simulateBatch is the fan-out behind Client.Batch. One batch is one
// scenario, so its spec is materialized once, and every run shares the
// simulator world attached below. Every run is checked and configured
// before any starts, so a bad run reports its own error even when ctx
// is already done. The runs then execute on the worker pool; a run the
// pool never starts carries the context's error.
func simulateBatch(ctx context.Context, s Scenario, runs []BatchRun, workers int, baseSeed int64) []BatchOutcome {
	out := make([]BatchOutcome, len(runs))
	sp, specErr := s.spec()
	var m *scenario.Materialized
	if specErr == nil {
		m, specErr = sp.spec.Materialize()
	}
	cfgs := make([]sim.Config, len(runs))
	var ready []int // batch indices of the runs that passed their checks
	for i, r := range runs {
		out[i].Run = r
		if cfgs[i], out[i].Err = batchConfig(sp, m, specErr, r, baseSeed); out[i].Err == nil {
			ready = append(ready, i)
		}
	}
	// Materialize the shared world once: neighbour tables, link tables
	// and (for LMAC) the slot plan stop being re-derived per rep. Tables
	// that do not match a particular rep (a different seed's arrivals, a
	// re-bargained slot count) are ignored by that rep, never misapplied.
	if len(ready) > 0 {
		if shared, err := sim.Materialize(cfgs[ready[0]]); err == nil {
			for _, i := range ready {
				cfgs[i].Shared = shared
			}
		}
	}
	results := make([]*sim.Result, len(runs))
	err := par.ForEach(ctx, len(ready), workers, func(j int) {
		i := ready[j]
		results[i], out[i].Err = sim.RunContext(ctx, cfgs[i])
	})
	for _, i := range ready {
		switch {
		case results[i] != nil:
			out[i].Report = simReportOf(runs[i].Protocol, runs[i].Params, cfgs[i].Seed, m, results[i])
		case out[i].Err == nil:
			out[i].Err = err
		}
	}
	return out
}

// batchConfig checks one run of a batch over the spec sp, materialized
// as m (specErr when the scenario is invalid), and builds its config:
// the protocol is checked before the scenario, as Simulate checks it,
// and the run's seed is folded with the base seed.
func batchConfig(sp ScenarioSpec, m *scenario.Materialized, specErr error, r BatchRun, baseSeed int64) (sim.Config, error) {
	if err := simulable(r.Protocol); err != nil {
		return sim.Config{}, err
	}
	if specErr != nil {
		return sim.Config{}, specErr
	}
	if err := checkRun(r.Protocol, sp, r.Params); err != nil {
		return sim.Config{}, err
	}
	o := r.Options.withDefaults()
	o.Seed ^= baseSeed
	cfg := simConfigOf(sp.spec, m, r.Protocol, r.Params, o.Duration, o.Seed)
	return cfg, cfg.Validate()
}

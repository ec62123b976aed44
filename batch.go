package edmac

import (
	"context"
	"encoding/json"

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

// simulateBatch is the fan-out behind Client.Batch: every run's seed is
// folded with the client's base seed, configs are validated up front,
// and the independent runs execute on the shared worker pool. One batch
// is one scenario, so its environment and network are built once and
// every run shares the network object, which lets the materialized
// world below serve every rep. Networks are immutable.
func simulateBatch(ctx context.Context, s Scenario, runs []BatchRun, workers int, baseSeed int64) []BatchOutcome {
	out := make([]BatchOutcome, len(runs))
	cfgs := make([]sim.Config, 0, len(runs))
	cfgIdx := make([]int, 0, len(runs)) // batch index of each config
	rs := newRingSetup(s)
	for i, r := range runs {
		out[i].Run = r
		opts := r.Options
		opts.Seed ^= baseSeed
		cfg, err := rs.config(r.Protocol, r.Params, opts)
		if err != nil {
			out[i].Err = err
			continue
		}
		cfgs = append(cfgs, cfg)
		cfgIdx = append(cfgIdx, i)
	}
	// Materialize the shared world once: neighbour tables, link tables
	// and (for LMAC) the slot plan stop being re-derived per rep. Tables
	// that do not match a particular rep (a different seed's arrivals, a
	// re-bargained slot count) are ignored by that rep, never misapplied.
	if len(cfgs) > 0 {
		if shared, err := sim.Materialize(cfgs[0]); err == nil {
			for j := range cfgs {
				cfgs[j].Shared = shared
			}
		}
	}
	results := sim.RunBatch(ctx, cfgs, workers)
	for j, br := range results {
		i := cfgIdx[j]
		if br.Err != nil {
			out[i].Err = br.Err
			continue
		}
		out[i].Report = rs.report(runs[i].Protocol, runs[i].Params, cfgs[j].Seed, br.Result)
	}
	return out
}

package sim

import (
	"context"

	"github.com/edmac-project/edmac/internal/par"
)

// BatchResult pairs one Config's outcome with its error (nil-Result on
// error, nil-error on success).
type BatchResult struct {
	Result *Result
	Err    error
}

// RunBatch executes independent simulation configs concurrently on a
// pool of `workers` goroutines (one per CPU when workers < 1) and
// returns one BatchResult per config, in config order.
//
// Each config runs through RunContext, which builds all of its mutable
// state — engine, medium, transceivers, MAC state and RNG streams —
// fresh, while the shared inputs (topology.Network, radio.Radio, an
// attached Materialized) are immutable; so results are bit-identical to calling
// RunContext sequentially on each config, and concurrency changes only
// the wall clock. Cancelling ctx skips configs not yet started (their
// entries carry ctx.Err(), and an already-cancelled context runs
// nothing) and aborts runs already in flight, so a cancelled batch
// returns within a few thousand events per worker; aborted entries
// carry the context's error.
func RunBatch(ctx context.Context, cfgs []Config, workers int) []BatchResult {
	out := make([]BatchResult, len(cfgs))
	err := par.ForEach(ctx, len(cfgs), workers, func(i int) {
		res, err := RunContext(ctx, cfgs[i])
		out[i] = BatchResult{Result: res, Err: err}
	})
	if err != nil {
		// Configs the pool never started carry the cancellation error.
		for i := range out {
			if out[i].Result == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

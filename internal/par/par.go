// Package par is the one worker-pool primitive behind every parallel
// layer in the module (requirement sweeps, batch simulation, scenario
// suite cells). Keeping the pool in one place keeps the semantics — index
// ordering, worker clamping, cancellation — identical everywhere.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count request: values below 1 mean "one
// per CPU".
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// ForEach runs fn(i) for i in [0, n) on a pool of `workers` goroutines
// (one per CPU when workers < 1; never more than n). Each index is
// claimed by exactly one worker; result ordering is the caller's
// business (write to out[i]). fn must be safe for concurrent calls on
// distinct indices and must not share mutable state across them.
//
// Cancelling ctx stops the feed: indices not yet handed to a worker are
// never run — an already-cancelled context runs nothing — and the
// context's error is returned. Work in flight completes.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Degenerate pool: run inline, checking for cancellation between
		// items, so single-CPU hosts pay no goroutine overhead.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		// Mirror the pooled path: a cancellation that lands while the
		// last item is in flight is still a cancellation — callers must
		// not mistake an aborted pass for a completed one.
		return ctx.Err()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		// Check before selecting: when the context is already done, a
		// bare select could still pseudo-randomly pick a ready worker
		// and leak post-cancellation work.
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

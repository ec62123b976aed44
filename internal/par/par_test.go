package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var counts [n]atomic.Int32
		if err := ForEach(context.Background(), n, workers, func(i int) {
			counts[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(ctx, 50, workers, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d items ran after pre-cancellation, want 0", workers, got)
		}
	}
}

func TestForEachMidwayCancellationStopsFeeding(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	const n = 1000
	err := ForEach(ctx, n, 2, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight work completes but the feed stops promptly: far fewer
	// than n items may run (exact count depends on scheduling).
	if got := ran.Load(); got >= n {
		t.Errorf("cancellation did not stop the feed: %d of %d ran", got, n)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) { t.Error("fn called") }); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got < 1 {
		t.Errorf("Workers(-2) = %d, want >= 1", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}

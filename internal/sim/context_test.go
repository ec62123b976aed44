package sim

import (
	"context"
	"errors"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// TestRunContextBackgroundIdentical pins the cancellation plumbing's
// zero-cost contract: threading a cancellable context that is never
// cancelled (and so is polled) changes no event, metric or joule
// relative to an uncancellable one (never polled).
func TestRunContextBackgroundIdentical(t *testing.T) {
	cfg := lineConfig(t, "xmac", opt.Vector{0.25}, 4, 0.05, 800)
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("background: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatalf("cancellable: %v", err)
	}
	if want.Events != got.Events {
		t.Fatalf("event counts diverge: background %d, cancellable %d", want.Events, got.Events)
	}
	if want.Metrics.Generated() != got.Metrics.Generated() ||
		want.Metrics.Delivered() != got.Metrics.Delivered() {
		t.Fatalf("metrics diverge: background %d/%d, cancellable %d/%d",
			want.Metrics.Generated(), want.Metrics.Delivered(),
			got.Metrics.Generated(), got.Metrics.Delivered())
	}
	for i := range want.Energy {
		if want.Energy[i] != got.Energy[i] {
			t.Fatalf("node %d energy diverges: %v vs %v", i, want.Energy[i], got.Energy[i])
		}
	}
}

// TestRunContextCancelled proves an already-cancelled context aborts a
// run before it completes and surfaces the context's error.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := lineConfig(t, "xmac", opt.Vector{0.25}, 4, 0.05, 5000)
	res, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result")
	}
}

// TestRunPhasedContextCancelled covers the phased runner's abort path.
func TestRunPhasedContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := lineConfig(t, "xmac", opt.Vector{0.25}, 4, 0, 5000)
	cfg.Traffic = traffic.Periodic{Rate: 0.05}
	phases := []PhaseConfig{
		{Params: opt.Vector{0.25}, Until: 2500},
		{Params: opt.Vector{0.35}, Until: 5000},
	}
	res, err := RunPhasedContext(ctx, cfg, phases)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("cancelled phased run returned a result")
	}
}

// TestRunBatchCancelInFlight proves cancellation reaches runs already
// handed to a worker, not only queued ones: with a single worker and a
// context cancelled mid-batch, every outcome is either a completed
// result (started before the cancel) or a context error.
func TestRunBatchCancelInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{
		lineConfig(t, "xmac", opt.Vector{0.25}, 4, 0.05, 3000),
		lineConfig(t, "xmac", opt.Vector{0.3}, 4, 0.05, 3000),
	}
	for _, br := range RunBatch(ctx, cfgs, 1) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("want context.Canceled outcome, got result=%v err=%v", br.Result, br.Err)
		}
	}
}

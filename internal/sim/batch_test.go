package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// batchConfigs builds one runnable config per protocol plus seed
// variations — the matrix a batch must reproduce bit-identically. The
// matrix covers both channels: perfect links and a lossy shadowed
// network with capture, so the parallel-equals-sequential proof (run
// under -race in CI) extends to the per-link draw machinery.
func batchConfigs(t *testing.T) []Config {
	t.Helper()
	net, err := topology.Rings(topology.RingModel{Depth: 3, Density: 4})
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	lossyNet, err := topology.Rings(topology.RingModel{Depth: 3, Density: 4})
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	if err := channel.Apply(channel.Shadowing{}, lossyNet, 5); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	prof, err := radio.Profile("cc2420")
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	base := Config{
		Network:  net,
		Radio:    prof,
		Traffic:  traffic.Periodic{Rate: 1.0 / 60},
		Payload:  32,
		Duration: 300,
	}
	params := map[string]opt.Vector{
		"xmac": {0.25},
		"bmac": {0.25},
		"dmac": {2.0, 0.05},
		"lmac": {15, 0.05},
	}
	var cfgs []Config
	for _, proto := range []string{"xmac", "bmac", "dmac", "lmac"} {
		for seed := int64(1); seed <= 3; seed++ {
			c := base
			c.Protocol = proto
			c.Params = params[proto]
			c.Seed = seed
			cfgs = append(cfgs, c)
			lossy := c
			lossy.Network = lossyNet
			lossy.Capture = true
			cfgs = append(cfgs, lossy)
		}
	}
	return cfgs
}

// RunBatch must produce results byte-identical to sequential Run calls
// for the same configs: every run owns its world, so concurrency must
// not leak into the measurements. Run under -race this doubles as the
// proof that the batch shares nothing mutable.
func TestRunBatchMatchesSequential(t *testing.T) {
	cfgs := batchConfigs(t)
	sequential := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		res, err := RunContext(context.Background(), c)
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		sequential[i] = res
	}
	batch := RunBatch(context.Background(), cfgs, 4)
	if len(batch) != len(cfgs) {
		t.Fatalf("RunBatch returned %d results, want %d", len(batch), len(cfgs))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch run %d (%s seed %d): %v", i, cfgs[i].Protocol, cfgs[i].Seed, br.Err)
		}
		if !reflect.DeepEqual(sequential[i], br.Result) {
			t.Errorf("run %d (%s seed %d): batch result differs from sequential\nsequential %+v\nbatch      %+v",
				i, cfgs[i].Protocol, cfgs[i].Seed, sequential[i], br.Result)
		}
	}
}

// Equal seeds must agree even across distinct batches (regression guard
// for hidden state shared between runs, e.g. pools leaking through).
func TestRunBatchReproducible(t *testing.T) {
	cfgs := batchConfigs(t)
	a := RunBatch(context.Background(), cfgs, 3)
	b := RunBatch(context.Background(), cfgs, 5)
	for i := range cfgs {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("run %d: errs %v, %v", i, a[i].Err, b[i].Err)
		}
		if !reflect.DeepEqual(a[i].Result, b[i].Result) {
			t.Errorf("run %d (%s seed %d): two batches disagree", i, cfgs[i].Protocol, cfgs[i].Seed)
		}
	}
}

func TestRunBatchCancellation(t *testing.T) {
	// An already-cancelled context must run nothing: every outcome
	// carries the cancellation error and no simulation executes.
	cfgs := batchConfigs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := RunBatch(ctx, cfgs, 2)
	for i, br := range out {
		if !errors.Is(br.Err, context.Canceled) {
			t.Errorf("outcome %d: err = %v, want context.Canceled", i, br.Err)
		}
		if br.Result != nil {
			t.Errorf("outcome %d: simulation ran despite pre-cancelled context", i)
		}
	}
}

func TestRunBatchPropagatesConfigErrors(t *testing.T) {
	cfgs := batchConfigs(t)
	cfgs[1].Protocol = "nosuch"
	out := RunBatch(context.Background(), cfgs, 2)
	if out[1].Err == nil {
		t.Error("invalid config produced no error")
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("valid configs failed: %v, %v", out[0].Err, out[2].Err)
	}
}

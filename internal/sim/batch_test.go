package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/par"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// batchConfigs builds one runnable config per protocol plus seed
// variations — the matrix a worker pool must reproduce bit-identically.
// The matrix covers both channels: perfect links and a lossy shadowed
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

// runBatch runs cfgs on a pool of the given number of workers, the way
// the facade's Batch fans out: par.ForEach over RunContext, one result
// per config in input order. One worker runs them in order, inline.
func runBatch(t *testing.T, cfgs []Config, workers int) []*Result {
	t.Helper()
	out := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	if err := par.ForEach(context.Background(), len(cfgs), workers, func(i int) {
		out[i], errs[i] = RunContext(context.Background(), cfgs[i])
	}); err != nil {
		t.Fatalf("%d workers: %v", workers, err)
	}
	for i, c := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%d workers, run %d (%s seed %d): %v", workers, i, c.Protocol, c.Seed, errs[i])
		}
	}
	return out
}

// A pooled batch must produce results identical to sequential runs of
// the same configs: every run owns its world, so concurrency must not
// leak into the measurements. Run under -race this doubles as the proof
// that concurrent runs share nothing mutable.
func TestRunBatchMatchesSequential(t *testing.T) {
	cfgs := batchConfigs(t)
	sequential := runBatch(t, cfgs, 1)
	pooled := runBatch(t, cfgs, 4)
	for i, c := range cfgs {
		if !reflect.DeepEqual(sequential[i], pooled[i]) {
			t.Errorf("run %d (%s seed %d): pooled result differs from sequential\nsequential %+v\npooled     %+v",
				i, c.Protocol, c.Seed, sequential[i], pooled[i])
		}
	}
}

// Equal seeds must agree across distinct batches at different pool
// sizes (regression guard for hidden state shared between runs, e.g.
// pools leaking through).
func TestRunBatchReproducible(t *testing.T) {
	cfgs := batchConfigs(t)
	a := runBatch(t, cfgs, 3)
	b := runBatch(t, cfgs, 5)
	for i, c := range cfgs {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("run %d (%s seed %d): two batches disagree", i, c.Protocol, c.Seed)
		}
	}
}

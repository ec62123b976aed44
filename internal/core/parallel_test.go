package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
)

// A pooled sweep must be bit-identical to the one-worker sweep for every
// protocol, along both requirement axes: same cells, same order, same
// floats.
func TestParallelSweepsMatchSequential(t *testing.T) {
	env := macmodel.Default()
	for _, name := range []string{"xmac", "dmac", "lmac", "bmac", "scpmac"} {
		t.Run(name, func(t *testing.T) {
			m, err := macmodel.New(name, env)
			if err != nil {
				t.Fatalf("model: %v", err)
			}
			delays := grid([]float64{PaperEnergyBudget}, PaperDelays())
			comparePoints(t, "max-delay", mustSweep(t, m, delays, 1), mustSweep(t, m, delays, 4))
			budgets := grid(PaperBudgets(), []float64{PaperMaxDelay})
			comparePoints(t, "energy-budget", mustSweep(t, m, budgets, 1), mustSweep(t, m, budgets, 4))
		})
	}
}

func comparePoints(t *testing.T, what string, seq, par []SweepPoint) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d sequential cells vs %d parallel", what, len(seq), len(par))
	}
	for i := range seq {
		if (seq[i].Err == nil) != (par[i].Err == nil) {
			t.Errorf("%s[%d]: err mismatch: %v vs %v", what, i, seq[i].Err, par[i].Err)
			continue
		}
		if seq[i].Err != nil {
			if seq[i].Err.Error() != par[i].Err.Error() {
				t.Errorf("%s[%d]: err text mismatch: %v vs %v", what, i, seq[i].Err, par[i].Err)
			}
			continue
		}
		// Tradeoff is floats and strings all the way down; it must match
		// exactly, not approximately.
		if !reflect.DeepEqual(seq[i].Tradeoff, par[i].Tradeoff) {
			t.Errorf("%s[%d]: tradeoff mismatch:\nsequential %+v\nparallel   %+v",
				what, i, seq[i].Tradeoff, par[i].Tradeoff)
		}
	}
}

func TestParallelSweepCancellation(t *testing.T) {
	env := macmodel.Default()
	m, err := macmodel.New("xmac", env)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := grid([]float64{PaperEnergyBudget}, PaperDelays())
	for _, workers := range []int{1, 2} {
		if _, err := Sweep(ctx, m, reqs, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %d-worker sweep returned %v, want context.Canceled", workers, err)
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
	"github.com/edmac-project/edmac/internal/opt"
)

// solverDigest pins the solver's outputs bit for bit: the float bits of
// every strict and relaxed Tradeoff over the five protocols × {perfect,
// lossy} links × the requirement pairs below, and of every frontier. A change
// that is meant to be a pure refactor or speedup of opt, nbs or
// macmodel must leave it unchanged; a change that moves a result on
// purpose updates it in the same commit and says why.
const solverDigest = "8f2400cb69c92a92"

// digestRequirements spans every outcome class: the paper's headline
// pair, tight budgets the relaxed mode answers with a budget-exceeded
// best-effort point, DMAC's and LMAC's minimum reachable delay under a
// loose budget (degenerate bargains: the frontier collapses to a point),
// and a pair no protocol can meet.
var digestRequirements = []Requirements{
	{EnergyBudget: PaperEnergyBudget, MaxDelay: PaperMaxDelay},
	{EnergyBudget: 0.01, MaxDelay: PaperMaxDelay},
	{EnergyBudget: 0.02, MaxDelay: 0.6},
	{EnergyBudget: 0.005, MaxDelay: 0.3},
	{EnergyBudget: 10, MaxDelay: 0.06818},
	{EnergyBudget: 10, MaxDelay: 0.10023999999999998},
	{EnergyBudget: 1e-6, MaxDelay: 1e-3},
}

// digester folds results into one FNV-64a hash.
type digester struct{ h hash.Hash64 }

func (d digester) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		d.h.Write(b[:])
	}
}

func (d digester) tag(s string) { d.h.Write([]byte(s + "\x00")) }

func (d digester) flag(b bool) {
	if b {
		d.tag("1")
	} else {
		d.tag("0")
	}
}

// outcome records an error class, so a case that starts or stops failing
// moves the digest too.
func (d digester) outcome(err error) bool {
	switch {
	case err == nil:
		d.tag("ok")
		return true
	case errors.Is(err, nbs.ErrInfeasible):
		d.tag("infeasible")
	default:
		d.tag("error")
	}
	return false
}

func (d digester) point(p opt.Vector, a, b float64) {
	d.floats(p...)
	d.floats(a, b)
}

func (d digester) tradeoff(tr Tradeoff) {
	for _, p := range []OperatingPoint{tr.EnergyOptimal, tr.DelayOptimal, tr.Bargain} {
		d.point(p.Params, p.Energy, p.Delay)
	}
	d.floats(tr.WorstEnergy, tr.WorstDelay, tr.FairnessEnergy, tr.FairnessDelay)
	d.flag(tr.Degenerate)
	d.flag(tr.BudgetExceeded)
}

func TestSolverDigest(t *testing.T) {
	d := digester{fnv.New64a()}
	var degenerate, exceeded, infeasible int
	for _, prr := range []float64{0, 0.85} {
		env := macmodel.Default()
		env.LinkPRR = prr
		for _, name := range macmodel.Names() {
			m, err := macmodel.New(name, env)
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			d.tag(fmt.Sprintf("%s/%v", name, prr))
			for _, req := range digestRequirements {
				tr, err := Optimize(m, req)
				if d.outcome(err) {
					d.tradeoff(tr)
				}
				tr, err = OptimizeRelaxed(m, req)
				if !d.outcome(err) {
					infeasible++
					continue
				}
				d.tradeoff(tr)
				if tr.Degenerate {
					degenerate++
				}
				if tr.BudgetExceeded {
					exceeded++
				}
			}

			pts, err := FrontierContext(context.Background(), m, paperReq(), 12)
			if d.outcome(err) {
				for _, p := range pts {
					d.point(p.X, p.A, p.B)
				}
			}
		}
	}
	if degenerate == 0 || exceeded == 0 || infeasible == 0 {
		t.Fatalf("requirement pairs no longer span every outcome class: %d degenerate, %d budget-exceeded, %d infeasible",
			degenerate, exceeded, infeasible)
	}
	t.Logf("%d degenerate, %d budget-exceeded, %d infeasible relaxed solves", degenerate, exceeded, infeasible)
	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != solverDigest {
		t.Fatalf("solver digest = %s, want %s: a solver output moved", got, solverDigest)
	}
}

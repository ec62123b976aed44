package nbs

import (
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/opt"
)

// TestSolveEvaluationCounts pins how many times one Solve evaluates each
// player's cost on the real protocol models, at the paper's headline
// requirements (Ebudget 0.06 J, Lmax 6 s). The counts are exact: the
// solver is deterministic, so any change to them is a change to how
// much work a solve does, and must be made on purpose. The comments
// give the earlier counts: first from before the polish stopped
// escalating its penalty weight once a run provably repeats the one
// before it, then from before each program computed both costs once
// per point, when (P4) evaluated each cost twice per point, once for
// the objective and once for its cap.
func TestSolveEvaluationCounts(t *testing.T) {
	want := map[string][2]int{
		"xmac":   {1981, 1981}, // was 2650, before that 3503 each
		"dmac":   {9199, 9199}, // was 9534, before that 12522 each
		"lmac":   {9792, 9792}, // was 9792, before that 12686 each
		"bmac":   {2597, 2597}, // was 2804, before that 3657 each
		"scpmac": {2473, 2473}, // was 2944, before that 3793 each
	}
	for _, name := range macmodel.Names() {
		m, err := macmodel.New(name, macmodel.Default())
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		var got [2]int
		g := Game{
			CostA:      func(x opt.Vector) float64 { got[0]++; return m.Energy(x) },
			CostB:      func(x opt.Vector) float64 { got[1]++; return m.Delay(x) },
			BudgetA:    0.06,
			BudgetB:    6,
			Bounds:     m.Bounds(),
			Structural: m.Structural(),
		}
		if _, err := Solve(g); err != nil {
			t.Fatalf("%s: Solve: %v", name, err)
		}
		if got != want[name] {
			t.Errorf("%s: Solve evaluated CostA %d and CostB %d times, want %d and %d",
				name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// TestProgramEvalAllocFree: the per-point path — a program's eval over a
// real protocol model — allocates nothing, whatever the goal and caps.
func TestProgramEvalAllocFree(t *testing.T) {
	for _, name := range macmodel.Names() {
		m, err := macmodel.New(name, macmodel.Default())
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		g := &Game{
			CostA: m.Energy, CostB: m.Delay, BudgetA: 0.06, BudgetB: 6,
			Bounds: m.Bounds(), Structural: m.Structural(),
		}
		b := m.Bounds()
		x := make(opt.Vector, b.Dim()) // the box's midpoint
		for i := range x {
			x[i] = 0.5 * (b.Lo[i] + b.Hi[i])
		}
		for _, p := range []program{g.minA(6), g.minB(0.06), g.bargaining(0.06, 6)} {
			if n := testing.AllocsPerRun(100, func() { p.eval(x) }); n != 0 {
				t.Errorf("%s: goal %d eval allocates %v times per point", name, p.goal, n)
			}
		}
	}
}

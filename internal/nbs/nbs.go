// Package nbs implements the paper's cooperative game machinery: the
// two optimization players (P1) and (P2), the Nash Bargaining Solution
// via the log-transformed concave program (P4), the Pareto-frontier
// tracer behind the figures, and the proportional-fairness identity.
//
// The package is deliberately generic over two cost functions A and B of
// a shared decision vector — in the paper A is energy and B is
// end-to-end delay, but keeping it abstract lets property tests exercise
// the bargaining axioms on synthetic games with known solutions.
package nbs

import (
	"errors"
	"fmt"
	"math"

	"github.com/edmac-project/edmac/internal/opt"
)

// Game is the two-player cooperative cost game: virtual players A and B
// share the decision vector X and each wants its own cost low. BudgetA
// and BudgetB are the application caps (the paper's Ebudget and Lmax).
type Game struct {
	// CostA is player A's cost (the paper's energy E(X)).
	CostA opt.Func
	// CostB is player B's cost (the paper's delay L(X)).
	CostB opt.Func
	// BudgetA caps CostA in (P2) and in the bargaining program.
	BudgetA float64
	// BudgetB caps CostB in (P1) and in the bargaining program.
	BudgetB float64
	// Bounds delimit the decision vector.
	Bounds opt.Bounds
	// Structural holds protocol feasibility constraints (<= 0 feasible).
	Structural []opt.Constraint
	// Relax enables the paper's figure behaviour for over-constrained
	// requirement pairs: when the joint bargaining region
	// {A <= BudgetA, B <= BudgetB} is empty, Solve falls back to the
	// (P1) point — the best-effort configuration that honours BudgetB
	// while exceeding BudgetA — and flags the outcome BudgetExceeded
	// instead of failing. (The paper's Fig. 1c/2c LMAC points sit above
	// the stated 0.06 J budget; this is that behaviour, made explicit.)
	Relax bool
}

// Validate reports whether the game is well formed.
func (g Game) Validate() error {
	if g.CostA == nil || g.CostB == nil {
		return errors.New("nbs: both cost functions must be set")
	}
	if g.BudgetA <= 0 || g.BudgetB <= 0 {
		return fmt.Errorf("nbs: budgets must be positive, got (%v, %v)", g.BudgetA, g.BudgetB)
	}
	return g.Bounds.Validate()
}

// Point is one operating point: a decision vector and both players'
// costs there.
type Point struct {
	X opt.Vector
	A float64
	B float64
}

// pointAt evaluates both costs at x.
func (g Game) pointAt(x opt.Vector) Point {
	return Point{X: x.Clone(), A: g.CostA(x), B: g.CostB(x)}
}

// Outcome is the full result of playing the game.
type Outcome struct {
	// BestA solves (P1): minimize A subject to B <= BudgetB. Its costs
	// are the paper's (Ebest, Lworst).
	BestA Point
	// BestB solves (P2): minimize B subject to A <= BudgetA. Its costs
	// are the paper's (Eworst, Lbest).
	BestB Point
	// DisagreementA and DisagreementB form the threat point
	// (Eworst, Lworst): each player threatens the other with its worst.
	DisagreementA float64
	DisagreementB float64
	// Bargain is the Nash Bargaining Solution of (P3)/(P4).
	Bargain Point
	// Degenerate is true when no point strictly improves on the
	// disagreement for both players simultaneously, and Bargain is the
	// feasibility fallback instead of a product maximizer.
	Degenerate bool
	// BudgetExceeded is true (only in Relax mode) when the bargain is
	// the best-effort (P1) point because no configuration satisfies both
	// budgets at once; its A cost exceeds BudgetA.
	BudgetExceeded bool
}

// ErrInfeasible wraps opt.ErrInfeasible with game context; returned when
// the application requirements cannot be met by any parameter setting.
var ErrInfeasible = opt.ErrInfeasible

// Solve plays the complete game: solves (P1) and (P2), forms the
// disagreement point, and computes the Nash Bargaining Solution.
func Solve(g Game) (Outcome, error) {
	if err := g.Validate(); err != nil {
		return Outcome{}, err
	}

	r1, err := g.minA(g.BudgetB).solve()
	if err != nil {
		return Outcome{}, fmt.Errorf("nbs: player A problem (P1): %w", err)
	}

	p2 := g.minB(g.BudgetA)
	r2, err := p2.solve()
	budgetExceeded := false
	if err != nil {
		if !g.Relax || !errors.Is(err, opt.ErrInfeasible) {
			return Outcome{}, fmt.Errorf("nbs: player B problem (P2): %w", err)
		}
		// Relaxed: the budget is below the protocol's reachable energy;
		// threaten with the unconstrained delay optimum instead.
		budgetExceeded = true
		p2.hasCapA = false
		r2, err = p2.solve()
		if err != nil {
			return Outcome{}, fmt.Errorf("nbs: player B problem (P2, relaxed): %w", err)
		}
	}

	out := Outcome{
		BestA: g.pointAt(r1.X),
		BestB: g.pointAt(r2.X),
	}
	out.DisagreementA = out.BestB.A // Eworst: energy at the delay-optimal point
	out.DisagreementB = out.BestA.B // Lworst: delay at the energy-optimal point

	bargain, degenerate, err := Bargain(g, out.DisagreementA, out.DisagreementB)
	switch {
	case err == nil:
		out.Bargain = bargain
		out.Degenerate = degenerate
	case g.Relax && errors.Is(err, opt.ErrInfeasible):
		// The joint region {A <= BudgetA, B <= BudgetB} is empty: fall
		// back to the best-effort (P1) point, which honours BudgetB but
		// busts BudgetA — the behaviour visible in the paper's figures.
		out.Bargain = out.BestA
		out.BudgetExceeded = true
	default:
		return Outcome{}, err
	}
	if budgetExceeded {
		out.BudgetExceeded = true
	}
	return out, nil
}

// goal is what a program minimizes, as a function of the two costs.
type goal uint8

const (
	goalA    goal = iota // A: (P1), frontier caps, the degenerate fallback
	goalB                // B: (P2) and the frontier anchor
	goalNash             // −log(vA − A) − log(vB − B): the bargain (P4)
)

// program is one of the game's constrained programs: minimize goal
// subject to the structural constraints and the optional caps on A and
// B. opt solves it through eval, one call per candidate point.
type program struct {
	g    *Game
	goal goal
	// capA and capB bound the costs when hasCapA / hasCapB are set.
	capA, capB       float64
	hasCapA, hasCapB bool
	// vA and vB are the disagreement point of the bargaining goal.
	vA, vB float64
}

// minA is the program "minimize A subject to B <= capB".
func (g *Game) minA(capB float64) program {
	return program{g: g, goal: goalA, capB: capB, hasCapB: true}
}

// minB is the program "minimize B subject to A <= capA".
func (g *Game) minB(capA float64) program {
	return program{g: g, goal: goalB, capA: capA, hasCapA: true}
}

// bargaining is the program (P4) over the bargaining region: both costs
// capped at the smaller of their budget and the disagreement point
// (vA, vB).
func (g *Game) bargaining(vA, vB float64) program {
	return program{
		g: g, goal: goalNash, vA: vA, vB: vB,
		capA: math.Min(g.BudgetA, vA), hasCapA: true,
		capB: math.Min(g.BudgetB, vB), hasCapB: true,
	}
}

// solve minimizes the program over the game's bounds.
func (p program) solve() (opt.Result, error) {
	return opt.Solve(opt.Problem{Eval: p.eval, Bounds: p.g.Bounds})
}

// eval is the program's opt.PointFunc. It computes each cost at most
// once, and only when the goal or a cap reads it, then derives the
// objective and the total violation from them: the structural
// constraints first, then the A cap, then the B cap.
//
//edvet:hotpath
func (p *program) eval(x opt.Vector) (f, viol float64) {
	var a, b float64
	if p.goal != goalB || p.hasCapA {
		a = p.g.CostA(x)
	}
	if p.goal != goalA || p.hasCapB {
		b = p.g.CostB(x)
	}
	viol = opt.Violation(x, p.g.Structural)
	if p.hasCapA {
		viol = opt.AddViolation(viol, a-p.capA)
	}
	if p.hasCapB {
		viol = opt.AddViolation(viol, b-p.capB)
	}
	return p.objective(a, b), viol
}

// objective is the goal's value at costs (a, b).
func (p *program) objective(a, b float64) float64 {
	switch p.goal {
	case goalA:
		return a
	case goalB:
		return b
	default: // goalNash
		gainA := p.vA - a
		gainB := p.vB - b
		if gainA <= 0 || gainB <= 0 {
			return math.Inf(1)
		}
		return -math.Log(gainA) - math.Log(gainB)
	}
}

// Bargain computes the Nash Bargaining Solution for an explicit
// disagreement point (vA, vB) by solving the paper's program (P4):
//
//	maximize  log(vA − A(x)) + log(vB − B(x))
//	subject to A(x) <= min(BudgetA, vA), B(x) <= min(BudgetB, vB),
//	           structural constraints.
//
// The auxiliary variables (E1, L1) of the paper are substituted out: at
// any optimum they bind to the cost functions, so optimizing directly
// over x is equivalent and keeps the search space small.
//
// When no feasible point strictly improves on v for both players the
// product program is vacuous; Bargain then returns the feasible point
// lexicographically best for player A and reports degenerate=true.
func Bargain(g Game, vA, vB float64) (Point, bool, error) {
	if err := g.Validate(); err != nil {
		return Point{}, false, err
	}
	p := g.bargaining(vA, vB)
	r, err := p.solve()
	if err == nil && !math.IsInf(r.F, 1) {
		return g.pointAt(r.X), false, nil
	}

	// Degenerate: fall back to the best feasible point for player A
	// under both caps, typically because the frontier collapses to a
	// point or v itself is on the frontier.
	p.goal = goalA
	rf, ferr := p.solve()
	if ferr != nil {
		return Point{}, true, fmt.Errorf("nbs: bargaining region empty: %w", ferr)
	}
	return g.pointAt(rf.X), true, nil
}

// Fairness returns the proportional-fairness coordinates of the bargain:
//
//	fA = (A* − vA) / (Abest − vA),  fB = (B* − vB) / (Bbest − vB)
//
// Both lie in [0, 1]; the paper (following Zhao et al.) states fA = fB
// at the Nash solution when the disagreement point is (Eworst, Lworst).
// The identity is exact on linear frontiers and approximate otherwise.
// NaN is returned for a coordinate whose denominator vanishes (the
// degenerate, no-trade-off case).
func (o Outcome) Fairness() (fA, fB float64) {
	denA := o.BestA.A - o.DisagreementA
	denB := o.BestB.B - o.DisagreementB
	fA, fB = math.NaN(), math.NaN()
	if denA != 0 {
		fA = (o.Bargain.A - o.DisagreementA) / denA
	}
	if denB != 0 {
		fB = (o.Bargain.B - o.DisagreementB) / denB
	}
	return fA, fB
}

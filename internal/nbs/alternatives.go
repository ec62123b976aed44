package nbs

import "fmt"

// The alternative bargaining solutions below share the NBS feasible
// region — costs capped at the component-wise minimum of the budgets and
// the disagreement point — but pick different compromise points. They
// exist as ablation baselines: the benchmark suite contrasts them with
// the Nash solution the paper argues for.

// KalaiSmorodinsky computes the Kalai-Smorodinsky bargaining solution
// for disagreement point (vA, vB) and ideal point (idealA, idealB)
// (player-wise best costs): the feasible point that equalizes — and
// maximizes — both players' gain fractions
//
//	(vA − A(x)) / (vA − idealA)  and  (vB − B(x)) / (vB − idealB).
func KalaiSmorodinsky(g Game, vA, vB, idealA, idealB float64) (Point, error) {
	if err := g.Validate(); err != nil {
		return Point{}, err
	}
	rangeA := vA - idealA
	rangeB := vB - idealB
	if rangeA <= 0 || rangeB <= 0 {
		return Point{}, fmt.Errorf("nbs: kalai-smorodinsky: empty gain ranges (%v, %v)", rangeA, rangeB)
	}
	p := g.bargaining(goalKS, vA, vB)
	p.rangeA, p.rangeB = rangeA, rangeB
	return p.solveCompromise()
}

// Egalitarian computes the egalitarian solution: it maximizes the
// smaller of the two absolute cost gains over the disagreement point.
// Unlike Nash and Kalai-Smorodinsky it is not scale-invariant, which the
// ablation benchmarks demonstrate.
func Egalitarian(g Game, vA, vB float64) (Point, error) {
	if err := g.Validate(); err != nil {
		return Point{}, err
	}
	return g.bargaining(goalEgalitarian, vA, vB).solveCompromise()
}

// WeightedSum minimizes w·Ā(x) + (1−w)·B̄(x), with each cost normalized
// by its disagreement value — the scalarization baseline the paper's
// introduction criticizes ("optimizing one objective subject to the
// other") generalized to a tunable weight.
func WeightedSum(g Game, vA, vB, w float64) (Point, error) {
	if err := g.Validate(); err != nil {
		return Point{}, err
	}
	if w < 0 || w > 1 {
		return Point{}, fmt.Errorf("nbs: weight %v must lie in [0, 1]", w)
	}
	if vA <= 0 || vB <= 0 {
		return Point{}, fmt.Errorf("nbs: weighted sum needs positive normalizers, got (%v, %v)", vA, vB)
	}
	p := g.bargaining(goalWeighted, vA, vB)
	p.w = w
	return p.solveCompromise()
}

// solveCompromise solves a program over the bargaining region and
// returns its optimum.
func (p program) solveCompromise() (Point, error) {
	r, err := p.solve()
	if err != nil {
		return Point{}, fmt.Errorf("nbs: compromise solve: %w", err)
	}
	return p.g.pointAt(r.X), nil
}

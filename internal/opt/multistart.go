package opt

import (
	"math"
	"sync/atomic"

	"github.com/edmac-project/edmac/internal/lazyrand"
	"github.com/edmac-project/edmac/internal/par"
)

// multiStartWeight is MultiStart's fixed exact-penalty weight.
const multiStartWeight = 1e7

// MultiStart runs Nelder-Mead with an exact penalty from `starts` points
// sampled uniformly from the box (deterministically for a given seed)
// plus the box centre, and returns the lexicographically best outcome.
// It is an independent solving strategy used to cross-check Solve in
// tests and ablation benchmarks.
func MultiStart(p Problem, starts int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if starts < 1 {
		starts = 1
	}
	const feasTol = 1e-9
	rng := lazyrand.New(seed)
	evals := 0
	eval := func(x Vector) (float64, float64) {
		evals++
		return p.Eval(x)
	}
	pen := penalized(eval, multiStartWeight)

	dim := p.Bounds.Dim()
	best := Result{F: math.Inf(1), Violation: math.Inf(1)}
	try := func(x0 Vector) {
		r := NelderMead(pen, x0, p.Bounds, NMOptions{})
		f, viol := eval(r.X)
		if isWorse(best.F, best.Violation, f, viol, feasTol) {
			best = Result{X: r.X.Clone(), F: f, Violation: viol}
		}
	}
	try(p.Bounds.Center())
	for s := 1; s < starts; s++ {
		x0 := make(Vector, dim)
		for i := range x0 {
			x0[i] = p.Bounds.Lo[i] + rng.Float64()*(p.Bounds.Hi[i]-p.Bounds.Lo[i])
		}
		try(x0)
	}
	best.Evals = evals
	if best.Violation > feasTol {
		return best, ErrInfeasible
	}
	return best, nil
}

// MultiStartParallel is MultiStart fanned over a worker pool: the start
// points are drawn up front from the same deterministic stream, each
// Nelder-Mead run solves independently on the pool, and the reduction
// walks the runs in start order with the same lexicographic rule — so
// the returned Result is identical to MultiStart's for equal inputs
// (including Evals: the counter is shared atomically and every run
// performs the same evaluations it would sequentially).
//
// The problem's Eval must be safe for concurrent calls; the framework's
// closed-form models are (they are immutable).
// workers < 1 uses one worker per CPU.
func MultiStartParallel(p Problem, starts int, seed int64, workers int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if starts < 1 {
		starts = 1
	}
	const feasTol = 1e-9
	rng := lazyrand.New(seed)
	dim := p.Bounds.Dim()

	// Draw every start point first: the RNG stream stays identical to
	// the sequential version's regardless of worker interleaving.
	points := make([]Vector, starts)
	points[0] = p.Bounds.Center()
	for s := 1; s < starts; s++ {
		x0 := make(Vector, dim)
		for i := range x0 {
			x0[i] = p.Bounds.Lo[i] + rng.Float64()*(p.Bounds.Hi[i]-p.Bounds.Lo[i])
		}
		points[s] = x0
	}

	var evals atomic.Int64
	results := make([]Result, starts)
	eval := func(x Vector) (float64, float64) {
		evals.Add(1)
		return p.Eval(x)
	}
	pen := penalized(eval, multiStartWeight)
	solve := func(s int) {
		r := NelderMead(pen, points[s], p.Bounds, NMOptions{})
		f, viol := eval(r.X)
		results[s] = Result{X: r.X, F: f, Violation: viol}
	}

	// A nil context: multi-start has no cancellation story — it either
	// finishes or the caller abandons the whole solve.
	par.ForEach(nil, starts, workers, solve)

	// Reduce in start order with the sequential comparator, so ties
	// resolve exactly as MultiStart resolves them.
	best := Result{F: math.Inf(1), Violation: math.Inf(1)}
	for _, r := range results {
		if isWorse(best.F, best.Violation, r.F, r.Violation, feasTol) {
			best = Result{X: r.X.Clone(), F: r.F, Violation: r.Violation}
		}
	}
	best.Evals = int(evals.Load())
	if best.Violation > feasTol {
		return best, ErrInfeasible
	}
	return best, nil
}

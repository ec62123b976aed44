package opt

import "math"

// NelderMead's settings.
const (
	// nmIterPerDim bounds the simplex iterations at nmIterPerDim·dim.
	nmIterPerDim = 400
	// nmTolF stops the search when the simplex's relative function
	// spread falls below it, together with nmTolX.
	nmTolF = 1e-12
	// nmTolX stops the search when the simplex diameter relative to the
	// bounds width falls below it, together with nmTolF.
	nmTolX = 1e-10
	// nmStep is the initial simplex edge as a fraction of the bounds
	// width.
	nmStep = 0.1
)

// NelderMead minimizes f over the box b starting from x0 using the
// downhill-simplex method with reflection/expansion/contraction/shrink
// and hard clamping to the box. It returns the best vertex found.
//
// The method is derivative-free and tolerates +Inf plateaus (infeasible
// penalty regions); vertices there simply rank worst.
//
// All working storage — the simplex, the centroid and the trial points —
// lives in one arena allocated up front and recycled by swapping slices,
// so an entire search performs a fixed handful of allocations however
// many iterations it runs. The sweep and bargaining layers call this in
// tight grids; the solver being allocation-free is what keeps the figure
// benchmarks off the garbage collector.
func NelderMead(f Func, x0 Vector, b Bounds) Result {
	dim := b.Dim()
	eval := func(x Vector) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	width := b.Width()

	type vertex struct {
		x Vector
		f float64
	}
	// One arena holds every vector the search will ever touch:
	// dim+1 simplex vertices, the centroid, and one trial buffer.
	arena := make(Vector, (dim+3)*dim)
	cut := func(i int) Vector { return arena[i*dim : (i+1)*dim] }
	simplex := make([]vertex, dim+1)
	for i := range simplex {
		simplex[i].x = cut(i)
	}
	c := cut(dim + 1)     // centroid
	trial := cut(dim + 2) // reflection/expansion/contraction candidate

	clamp := func(x Vector) {
		for i := range x {
			if x[i] < b.Lo[i] {
				x[i] = b.Lo[i]
			}
			if x[i] > b.Hi[i] {
				x[i] = b.Hi[i]
			}
		}
	}

	start := simplex[0].x
	copy(start, x0)
	clamp(start)
	simplex[0].f = eval(start)
	for i := 0; i < dim; i++ {
		x := simplex[i+1].x
		copy(x, start)
		step := nmStep * width[i]
		if x[i]+step > b.Hi[i] {
			step = -step
		}
		x[i] += step
		clamp(x)
		simplex[i+1].f = eval(x)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// order is a stable insertion sort: the simplex has at most a
	// handful of vertices and must not allocate per iteration.
	order := func() {
		for i := 1; i < len(simplex); i++ {
			v := simplex[i]
			j := i - 1
			for j >= 0 && simplex[j].f > v.f {
				simplex[j+1] = simplex[j]
				j--
			}
			simplex[j+1] = v
		}
	}
	centroid := func() {
		for i := range c {
			c[i] = 0
		}
		for _, v := range simplex[:dim] {
			for i := range c {
				c[i] += v.x[i]
			}
		}
		for i := range c {
			c[i] /= float64(dim)
		}
	}
	// combine fills the trial buffer with c + coeff·(c − x), clamped.
	combine := func(x Vector, coeff float64) {
		for i := range trial {
			trial[i] = c[i] + coeff*(c[i]-x[i])
		}
		clamp(trial)
	}
	// acceptTrial installs the trial point as the worst vertex by
	// swapping buffers, so no copy and no allocation.
	acceptTrial := func(fv float64) {
		simplex[dim].x, trial = trial, simplex[dim].x
		simplex[dim].f = fv
	}

	reseeded := false
	for iter := 0; iter < nmIterPerDim*dim; iter++ {
		order()
		// If every vertex is on an infinite plateau (e.g. the start point
		// landed in a penalized region), the simplex cannot orient itself;
		// reseed it once across the whole box to find usable ground.
		if math.IsInf(simplex[0].f, 1) && !reseeded {
			reseeded = true
			center := simplex[0].x
			for i := range center {
				center[i] = 0.5 * (b.Lo[i] + b.Hi[i])
			}
			simplex[0].f = eval(center)
			for i := 0; i < dim; i++ {
				x := simplex[i+1].x
				copy(x, center)
				if i%2 == 0 {
					x[i] = b.Lo[i] + 0.25*width[i]
				} else {
					x[i] = b.Hi[i] - 0.25*width[i]
				}
				simplex[i+1].f = eval(x)
			}
			order()
		}
		fBest, worst := simplex[0].f, simplex[dim]

		// Convergence: function spread and simplex size.
		spread := math.Abs(worst.f - fBest)
		if math.IsInf(fBest, 1) {
			spread = math.Inf(1)
		}
		diam := 0.0
		for _, v := range simplex[1:] {
			for i := range v.x {
				d := math.Abs(v.x[i]-simplex[0].x[i]) / width[i]
				if d > diam {
					diam = d
				}
			}
		}
		if spread <= nmTolF*(math.Abs(fBest)+1e-30) && diam <= nmTolX {
			break
		}

		centroid()
		combine(worst.x, alpha)
		fRefl := eval(trial)
		switch {
		case fRefl < fBest:
			// Try expanding past the reflection. The reflection must be
			// kept while the expansion is evaluated, so park it in the
			// worst vertex first and reuse the trial buffer.
			acceptTrial(fRefl)
			combine(worst.x, gamma)
			if fExp := eval(trial); fExp < fRefl {
				acceptTrial(fExp)
			}
		case fRefl < simplex[dim-1].f:
			acceptTrial(fRefl)
		default:
			combine(worst.x, -rho)
			if fContr := eval(trial); fContr < worst.f {
				acceptTrial(fContr)
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					x := simplex[i].x
					for j := range x {
						x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					clamp(x)
					simplex[i].f = eval(x)
				}
			}
		}
	}
	order()
	return Result{X: simplex[0].x.Clone(), F: simplex[0].f}
}

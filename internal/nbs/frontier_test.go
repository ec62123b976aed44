package nbs

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

func TestFrontierLinearGame(t *testing.T) {
	g := linearGame(1, 1)
	pts, err := FrontierContext(context.Background(), g, 1, 11)
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	if len(pts) < 5 {
		t.Fatalf("frontier too sparse: %d points", len(pts))
	}
	// On A = x, B = 1−x the frontier is A = 1−B.
	for _, p := range pts {
		if math.Abs(p.A-(1-p.B)) > 1e-3 {
			t.Errorf("point (%v, %v) off the known frontier A=1−B", p.A, p.B)
		}
	}
	// Ordered by increasing B with non-increasing A.
	for i := 1; i < len(pts); i++ {
		if pts[i].B < pts[i-1].B-1e-9 {
			t.Errorf("frontier not sorted by B: %v after %v", pts[i].B, pts[i-1].B)
		}
		if pts[i].A > pts[i-1].A+1e-6 {
			t.Errorf("frontier A not non-increasing: %v after %v", pts[i].A, pts[i-1].A)
		}
	}
}

// TestFrontierContextCancelled pins the point-granular abort: a done
// context stops the trace and surfaces the context's error instead of
// a partial curve.
func TestFrontierContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := FrontierContext(ctx, linearGame(1, 1), 1, 11)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Fatalf("cancelled trace returned %d points", len(pts))
	}
}

func TestFrontierQuadratic(t *testing.T) {
	g := Game{
		CostA:   func(x opt.Vector) float64 { return x[0] * x[0] },
		CostB:   func(x opt.Vector) float64 { return 1 - x[0] },
		BudgetA: 1,
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	pts, err := FrontierContext(context.Background(), g, 1, 9)
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	for _, p := range pts {
		// A = (1−B)².
		want := (1 - p.B) * (1 - p.B)
		if math.Abs(p.A-want) > 1e-3 {
			t.Errorf("point (%v, %v): A should be %v", p.A, p.B, want)
		}
	}
}

func TestFrontierValidation(t *testing.T) {
	g := linearGame(1, 1)
	if _, err := FrontierContext(context.Background(), g, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := FrontierContext(context.Background(), g, 0, 5); err == nil {
		t.Error("zero cap accepted")
	}
	bad := g
	bad.CostB = nil
	if _, err := FrontierContext(context.Background(), bad, 1, 5); err == nil {
		t.Error("invalid game accepted")
	}
}

func TestFrontierEmptyRange(t *testing.T) {
	// Best B is 0 at x=1, but with budgetA = 0.05 the best reachable B is
	// 0.95; a cap of 0.5 leaves an empty sweep range.
	g := linearGame(0.05, 1)
	if _, err := FrontierContext(context.Background(), g, 0.5, 5); err == nil {
		t.Error("empty frontier range accepted")
	}
}

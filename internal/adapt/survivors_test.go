package adapt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/topology"
)

// TestReplaySurvivors drives the degradation-aware hook directly: the
// full-liveness bargain matches the static one, a degraded liveness
// vector re-bargains on a shallower, sparser fragment, and an empty
// fragment errors so the runtime can fall back to its last-good vector.
func TestReplaySurvivors(t *testing.T) {
	m := materialized(t, "ring-attrition")
	req := core.Requirements{EnergyBudget: 0.06, MaxDelay: 3 + 1.2*float64(m.Network.Depth())}
	reb, err := ReplaySurvivors(m, "xmac", req)
	if err != nil {
		t.Fatal(err)
	}

	n := m.Network.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	full, err := reb(alive, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 1 || full[0] <= 0 {
		t.Fatalf("full-liveness vector %v", full)
	}
	// Full liveness replays the same game the static bridge plays.
	static, err := replay("xmac", m, m.MeanRate(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full[0] != static.Bargain.Params[0] {
		t.Errorf("full-liveness rebargain %v differs from the static bargain %v",
			full, static.Bargain.Params)
	}

	// Kill the two outermost rings' worth of nodes: the fragment
	// shrinks to ring 1 and the bargain moves.
	for i := 1; i < n; i++ {
		if m.Network.Ring(topology.NodeID(i)) > 1 {
			alive[i] = false
		}
	}
	degraded, err := reb(alive, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if degraded[0] == full[0] {
		t.Errorf("bargain did not move when the network collapsed to ring 1: %v", degraded)
	}

	// No survivors at all: the hook must error, not fabricate a vector.
	for i := 1; i < n; i++ {
		alive[i] = false
	}
	if _, err := reb(alive, 0, 200); err == nil {
		t.Error("empty fragment produced a vector")
	} else if !strings.Contains(err.Error(), "sink") {
		t.Errorf("empty-fragment error %q does not mention the sink", err)
	}
}

// TestReplaySurvivorsRejects pins the plan-time failure modes.
func TestReplaySurvivorsRejects(t *testing.T) {
	m := materialized(t, "ring-attrition")
	req := core.Requirements{EnergyBudget: 0.06, MaxDelay: 6.6}
	if _, err := ReplaySurvivors(nil, "xmac", req); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := ReplaySurvivors(m, "no-such-mac", req); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := ReplaySurvivors(m, "xmac", core.Requirements{}); err == nil {
		t.Error("zero requirements accepted")
	}
}

// TestReplaySurvivorsMemoMatchesFresh feeds one hook a liveness sequence
// that revisits the same survivor stats (a relay dies, recovers, and
// its ring-mates die in turn, across phases): every call must return
// exactly the vector, or the error, a fresh hook returns for that set,
// and a caller mutating a returned vector must not reach the memo.
func TestReplaySurvivorsMemoMatchesFresh(t *testing.T) {
	m := materialized(t, "meadow-stormcycle")
	req := core.Requirements{EnergyBudget: 0.06, MaxDelay: 3 + 1.2*float64(m.Network.Depth())}
	reb, err := ReplaySurvivors(m, "xmac", req)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Network.N()
	var ring1 []int
	for i := 1; i < n; i++ {
		if m.Network.Ring(topology.NodeID(i)) == 1 {
			ring1 = append(ring1, i)
		}
	}
	if len(ring1) < 2 {
		t.Fatalf("ring 1 has %d nodes, want two relays to alternate", len(ring1))
	}
	sets := [][]int{nil, {ring1[0]}, nil, {ring1[1]}, {ring1[0]}, {ring1[0], ring1[1]}, {ring1[1]}, nil}
	for _, phase := range []int{0, 1, 0, 7} {
		for k, dead := range sets {
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = true
			}
			for _, i := range dead {
				alive[i] = false
			}
			fresh, err := ReplaySurvivors(m, "xmac", req)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := fresh(alive, phase, float64(k))
			got, gotErr := reb(alive, phase, float64(k))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("phase %d, dead %v: memoised hook returned %v, %v; a fresh one %v, %v",
					phase, dead, got, gotErr, want, wantErr)
			}
			for i := range got {
				got[i] = -1
			}
		}
	}
}

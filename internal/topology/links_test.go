package topology

import "testing"

// TestGeneratorsEmitPerfectLinks asserts the default link contract:
// every generator materializes networks whose links carry PRR 1 (the
// perfect channel) until a channel model stamps them otherwise.
func TestGeneratorsEmitPerfectLinks(t *testing.T) {
	gens := []Generator{
		RingGen{Model: RingModel{Depth: 2, Density: 3}},
		GridGen{Width: 3, Height: 3, Spacing: 0.9},
		LineGen{Nodes: 4, Spacing: 0.8},
	}
	for _, g := range gens {
		net, err := g.Build(nil)
		if err != nil {
			t.Fatalf("%T: %v", g, err)
		}
		if net.Lossy() {
			t.Errorf("%T: fresh network marked lossy", g)
		}
		if got := net.MeanLinkPRR(); got != 1 {
			t.Errorf("%T: MeanLinkPRR = %v, want exactly 1", g, got)
		}
		for i := 0; i < net.N(); i++ {
			for _, nb := range net.Neighbors(NodeID(i)) {
				if prr := net.LinkPRR(NodeID(i), nb); prr != 1 {
					t.Fatalf("%T: LinkPRR(%d,%d) = %v, want 1", g, i, nb, prr)
				}
			}
		}
	}
}

func TestSetLink(t *testing.T) {
	net, err := Line(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Directed stamping: each direction holds its own value.
	net.SetLink(0, 1, 0.5, -2)
	if got := net.LinkPRR(0, 1); got != 0.5 {
		t.Errorf("LinkPRR(0,1) = %v, want 0.5", got)
	}
	if got := net.LinkPRR(1, 0); got != 1 {
		t.Errorf("LinkPRR(1,0) = %v, want untouched 1", got)
	}
	if got := net.LinkGainDB(0, 1); got != -2 {
		t.Errorf("LinkGainDB(0,1) = %v, want -2", got)
	}
	if !net.Lossy() {
		t.Error("network not marked lossy after a sub-1 PRR")
	}
	// Out-of-range PRRs clamp; non-links are no-ops and read as perfect.
	net.SetLink(1, 2, 1.7, 0)
	if got := net.LinkPRR(1, 2); got != 1 {
		t.Errorf("LinkPRR(1,2) = %v, want clamped 1", got)
	}
	net.SetLink(0, 2, 0.1, 0) // two hops apart: not a link
	if got := net.LinkPRR(0, 2); got != 1 {
		t.Errorf("LinkPRR(0,2) = %v for a non-link, want 1", got)
	}
	if got := net.MeanLinkPRR(); got >= 1 || got <= 0.5 {
		t.Errorf("MeanLinkPRR = %v, want inside (0.5, 1)", got)
	}
}

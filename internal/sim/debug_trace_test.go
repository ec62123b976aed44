package sim

import (
	"context"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

// TestDebugXMACTrace is a development aid: run with -run DebugXMAC -v to
// log the packet and collision counts of a short 1-hop X-MAC run.
func TestDebugXMACTrace(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("trace only under -v")
	}
	cfg := lineConfig(t, "xmac", opt.Vector{0.25}, 1, 0.05, 60)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("generated=%d delivered=%d dropped=%d collisions=%d",
		res.Metrics.Generated(), res.Metrics.Delivered(), res.Metrics.Dropped(), res.Collisions)
}

package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// lmacDigest pins LMAC's results over the grid of TestLMACDigest, the
// schedule's edge cases TestSimDigest does not reach, with the same
// hash of every Result field but PeakPending and WheelPromotions.
const lmacDigest = "5aa4b1037bc9eec2"

// lmacDigestFrames are the grid's frame shapes. The radios' control
// section lasts interFrameSpacing + 576 µs and a 32-byte data frame
// 1568 µs.
var lmacDigestFrames = []struct {
	name     string
	fastCCA  bool // an 8 µs CCA: the control window closes 8 µs after the section
	params   opt.Vector
	duration float64
}{
	// A data section's tail runs into the next slot's control section,
	// which every common neighbour hears: the slot is just long enough
	// for the control window to close before it ends.
	{"tail", false, opt.Vector{12, 0.0014}, 12},
	// The data section starts 10 µs into the next slot, before that
	// slot's control section: a common neighbour that started listening
	// locks onto the data and the control section overlaps it, so
	// collisions and captures occur both ways round.
	{"late", true, opt.Vector{12, 0.00063}, 12},
	// A control section outlasts its slot, so no node folds and a data
	// section can steal a lock from the next slot's control section.
	{"short", false, opt.Vector{12, 0.0006}, 3},
	// Long slots, where many frames' slot-0 start rounds below the
	// previous frame's end and is clamped to it.
	{"clamp", false, opt.Vector{12, 0.05}, 60},
}

// lmacDigestModes: one regime; a phase boundary on a control section's
// end; churn; explicit crashes at a sender's slot start, at its section's
// first bit and last bit, inside the section and between the section
// and the data; finite batteries that reach the fold's stretch limit.
var lmacDigestModes = []string{"fixed", "phase", "churn", "crash", "battery"}

// lmacSlotStart is the instant of slot s of frame k of a regime
// installed at base, with the arithmetic of the event schedule: a
// frame's first slot never starts before the previous frame ends.
func lmacSlotStart(base float64, slots int, tslot float64, k, s int) float64 {
	frame := float64(slots) * tslot
	epoch := base + float64(k)*frame
	at := epoch + float64(s)*tslot
	if k > 0 {
		if armed := (base + float64(k-1)*frame) + frame; at <= armed {
			return armed
		}
	}
	return at
}

// lmacCrashes returns failure events that crash, in turn, the non-sink
// nodes in nodes at a point of their own slot in a frame a few frames
// after the regime's install, each node down for down seconds. Each
// crash and each recovery installs a new regime, anchored at its
// instant, so each crash is placed relative to the previous recovery.
func lmacCrashes(nodes []topology.NodeID, owned []int, slots int, tslot, ctrlAir, down, until float64) []FailureEvent {
	var evs []FailureEvent
	base := 0.0
	for i := 0; ; i++ {
		id := nodes[i%len(nodes)]
		s := lmacSlotStart(base, slots, tslot, 3+i%4, owned[id])
		start := s + interFrameSpacing
		end := start + ctrlAir
		var at float64
		switch i % 5 {
		case 0:
			at = s // the slot's start
		case 1:
			at = start // the section's first bit
		case 2:
			at = end // its last bit
		case 3:
			at = start + ctrlAir/2 // inside it
		default:
			at = end + interFrameSpacing/2 // between it and the data
		}
		if at+down >= until {
			return evs
		}
		evs = append(evs, FailureEvent{Node: id, At: at, Duration: down})
		base = at + down
	}
}

// lmacDigestRun runs one cell of the grid.
func lmacDigestRun(t *testing.T, cfg Config, mode string, owned []int) (*Result, *runner) {
	t.Helper()
	slots, tslot := int(cfg.Params[0]), cfg.Params[1]
	ctrlAir := cfg.Radio.FrameAirtime(macmodel.CtrlBytes)
	phases := []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}
	run := fixedRun
	switch mode {
	case "phase":
		// The boundary falls on node 1's control section's last bit.
		s := lmacSlotStart(0, slots, tslot, 20, owned[1])
		until := (s + interFrameSpacing) + ctrlAir
		phases = []PhaseConfig{{Params: cfg.Params, Until: until}, {Params: cfg.Params, Until: cfg.Duration}}
		run = phasedRun
	case "churn":
		cfg.Failures = &FailureConfig{MTBF: cfg.Duration / 3, MTTR: cfg.Duration / 10}
	case "crash":
		var relays []topology.NodeID
		for i := 1; i < cfg.Network.N(); i++ {
			relays = append(relays, topology.NodeID(i))
		}
		cfg.Failures = &FailureConfig{Events: lmacCrashes(relays, owned, slots, tslot, ctrlAir, cfg.Duration/20, cfg.Duration)}
	case "battery":
		// Half of what the busiest node spends in a failure-free run.
		base, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		most := 0.0
		for _, e := range base.Energy[1:] {
			most = max(most, e)
		}
		cfg.Battery = &BatteryConfig{Capacity: most / 2}
	}
	if cfg.faulty() {
		run = faultyRun
	}
	if err := validatePhases(cfg, phases); err != nil {
		t.Fatal(err)
	}
	r := newRunner(cfg, phases, run, nil)
	res, err := r.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, r
}

// TestLMACDigest pins every LMAC result over frames whose data sections
// run into the next slot (and start inside it), control sections that
// outlast their slot and long slots whose slot-0 start clamps, × heavy
// periodic and bursty traffic × {perfect, shadowed with capture} ×
// {fixed, a phase boundary on a section's last bit, churn, crashes on
// and around a sender's control section, batteries} × 2 seeds. It
// asserts that the grid reaches what it is for: collisions, captures,
// channel losses and deaths; packets stranded by a crash; arrivals
// during a node's own control section; a clamped slot-0 start.
func TestLMACDigest(t *testing.T) {
	perfect, lossy := digestNetworks(t)
	d := simDigester{fnv.New64a()}
	var collisions, captures, losses, deaths, stranded, ownArrivals int
	clamped := false
	for _, fr := range lmacDigestFrames {
		prof := radio.CC2420()
		if fr.fastCCA {
			prof.CCA = 8e-6
		}
		slots, tslot := int(fr.params[0]), fr.params[1]
		owned, _, err := slotPlan(perfect, slots)
		if err != nil {
			t.Fatal(err)
		}
		frame := float64(slots) * tslot
		for k := 1; float64(k)*frame < fr.duration; k++ {
			if lmacSlotStart(0, slots, tslot, k, 0) != float64(k)*frame {
				clamped = true
			}
		}
		for _, tr := range []struct {
			name  string
			model traffic.Model
		}{
			{"heavy", traffic.Periodic{Rate: 2}},
			{"bursty", traffic.Bursty{PeakRate: 20, OnMean: 0.5, OffMean: 2}},
		} {
			for _, ch := range []string{"perfect", "lossy"} {
				for _, mode := range lmacDigestModes {
					for _, seed := range []int64{1, 2} {
						cfg := Config{
							Protocol: "lmac",
							Network:  perfect,
							Radio:    prof,
							Params:   fr.params,
							Traffic:  tr.model,
							Payload:  32,
							Duration: fr.duration,
							Seed:     seed,
						}
						if ch == "lossy" {
							cfg.Network = lossy
							cfg.Capture = true
						}
						name := fmt.Sprintf("%s/%s/%s/%s/%d", fr.name, tr.name, ch, mode, seed)
						d.tag(name)
						res, r := lmacDigestRun(t, cfg, mode, owned)
						d.result(res)
						collisions += res.Collisions
						captures += res.Captures
						losses += res.ChannelLosses
						if mode == "battery" {
							deaths += res.Deaths
						}
						if mode == "crash" {
							stranded += res.StrandedPackets
						}
						if mode == "fixed" {
							ownArrivals += arrivalsInOwnSection(r, slots, tslot)
						}
					}
				}
			}
		}
	}
	t.Logf("collisions %d, captures %d, losses %d, battery deaths %d, stranded by crashes %d, arrivals in own section %d",
		collisions, captures, losses, deaths, stranded, ownArrivals)
	if collisions == 0 || captures == 0 || losses == 0 || deaths == 0 || stranded == 0 || ownArrivals == 0 || !clamped {
		t.Fatalf("the grid no longer reaches every case: %d collisions, %d captures, %d losses, %d battery deaths, "+
			"%d packets stranded by crashes, %d arrivals in a node's own section, slot-0 clamp %v",
			collisions, captures, losses, deaths, stranded, ownArrivals, clamped)
	}
	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != lmacDigest {
		t.Fatalf("LMAC digest = %s, want %s: an LMAC result moved", got, lmacDigest)
	}
}

// arrivalsInOwnSection counts the arrivals of a one-regime run that
// fall inside their node's own control section.
func arrivalsInOwnSection(r *runner, slots int, tslot float64) int {
	ctrlAir := r.cfg.Radio.FrameAirtime(macmodel.CtrlBytes)
	owned, _, err := slotPlan(r.cfg.Network, slots)
	if err != nil {
		return 0
	}
	frame := float64(slots) * tslot
	n := 0
	for id, times := range r.arrivals {
		for _, at := range times {
			k := int(at / frame)
			s := lmacSlotStart(0, slots, tslot, k, owned[id])
			if at > s && at < (s+interFrameSpacing)+ctrlAir {
				n++
			}
		}
	}
	return n
}

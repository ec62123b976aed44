package sim

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// simDigest pins the simulator's results bit for bit: every Result
// field except the scheduler-shape counters PeakPending and
// WheelPromotions, over the grid of TestSimDigest. Events is hashed, so
// a change that drops or repeats an event moves it. A change meant to
// be a pure refactor or speedup of the simulator must leave it
// unchanged; a change that moves a result on purpose updates it in the
// same commit and says why.
const simDigest = "c64dc6f5b3766712"

// digestDuration is the simulated length of every digest run.
const digestDuration = 60.0

// digestProtocols pairs each protocol with the vector of its first
// phase (a) and of its second phase or re-bargained epoch (b). The
// low-power-listening intervals sit in the suite's bargain range, where
// idle polls dominate the event stream.
var digestProtocols = []struct {
	name     string
	a, b     opt.Vector
	capacity float64 // battery joules: small enough that nodes die mid-run
}{
	{"xmac", opt.Vector{0.0507}, opt.Vector{0.0289}, 0.06},
	{"bmac", opt.Vector{0.0507}, opt.Vector{0.0289}, 0.02},
	{"dmac", opt.Vector{1.2, 0.004}, opt.Vector{0.9, 0.005}, 0.01},
	{"lmac", opt.Vector{12, 0.05}, opt.Vector{14, 0.04}, 0.015},
}

// digestTraffic spans idle, light and heavy periodic sampling
// (traffic.Periodic) and a bursty model. Heavy traffic puts neighbour
// transmissions and arrivals both inside and between poll windows.
var digestTraffic = []struct {
	name  string
	model traffic.Model
}{
	{"none", nil},
	{"light", traffic.Periodic{Rate: 0.02}},
	{"heavy", traffic.Periodic{Rate: 0.25}},
	{"bursty", traffic.Bursty{PeakRate: 2, OnMean: 4, OffMean: 16}},
}

// digestModes are the run shapes: one regime, a phase boundary, churn,
// finite batteries, and both failure kinds under re-bargaining.
var digestModes = []string{"fixed", "two-phase", "churn", "battery", "churn+battery"}

// simDigester folds results into one FNV-64a hash.
type simDigester struct{ h hash.Hash64 }

func (d simDigester) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		d.h.Write(b[:])
	}
}

func (d simDigester) ints(xs ...int) {
	for _, x := range xs {
		d.floats(math.Float64frombits(uint64(x)))
	}
}

func (d simDigester) tag(s string) { d.h.Write([]byte(s + "\x00")) }

// result hashes every Result field but PeakPending and WheelPromotions.
func (d simDigester) result(r *Result) {
	d.floats(r.Duration)
	m := r.Metrics
	d.ints(m.generated, m.delivered, m.duplicates, m.dropped, len(m.samples))
	for _, s := range m.samples {
		d.ints(int(s.origin))
		d.floats(s.delay)
	}
	d.ints(r.Collisions, r.ChannelLosses, r.Captures)
	d.floats(math.Float64frombits(r.Events))
	d.floats(r.Energy...)
	d.floats(r.ListenTime...)
	d.floats(r.TxTime...)
	d.ints(r.Deaths, r.Recoveries, r.DeadAtEnd, r.StrandedPackets)
	d.floats(r.DeadNodeSeconds, r.PartitionSeconds)
	d.ints(r.Rebargains, r.DegradedRebargains)
}

// digestNetworks returns the grid's two 17-node, two-ring networks: a
// perfect channel and a shadowed one (lossy links, stamped gains).
func digestNetworks(t *testing.T) (perfect, lossy *topology.Network) {
	t.Helper()
	model := topology.RingModel{Depth: 2, Density: 3}
	var err error
	if perfect, err = topology.Rings(model); err != nil {
		t.Fatal(err)
	}
	if lossy, err = topology.Rings(model); err != nil {
		t.Fatal(err)
	}
	if err := channel.Apply(channel.Shadowing{}, lossy, 5); err != nil {
		t.Fatal(err)
	}
	return perfect, lossy
}

// digestRun executes one grid cell through the runner its entry point
// would build and returns the runner too, so the test can read the
// energy meters. Failure-free cells run as RunContext (fixed) or
// RunPhasedContext (two-phase) would.
func digestRun(cfg Config, mode string, b opt.Vector, capacity float64) (*Result, *runner, error) {
	phases := []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}
	run := fixedRun
	var reb Rebargainer
	switch mode {
	case "two-phase":
		phases = []PhaseConfig{{Params: cfg.Params, Until: 0.45 * cfg.Duration}, {Params: b, Until: cfg.Duration}}
		run = phasedRun
	case "churn":
		cfg.Failures = &FailureConfig{MTBF: 50, MTTR: 15}
	case "battery":
		cfg.Battery = &BatteryConfig{Capacity: capacity}
	case "churn+battery":
		cfg.Failures = &FailureConfig{MTBF: 50, MTTR: 15}
		cfg.Battery = &BatteryConfig{Capacity: capacity}
		a := cfg.Params
		reb = func(alive []bool, _ int, _ float64) (opt.Vector, error) {
			dead := 0
			for _, up := range alive {
				if !up {
					dead++
				}
			}
			if dead%2 == 1 {
				return b, nil
			}
			return a, nil
		}
	}
	if cfg.faulty() {
		run = faultyRun
	}
	if err := validatePhases(cfg, phases); err != nil {
		return nil, nil, err
	}
	r := newRunner(cfg, phases, run, reb)
	res, err := r.run(context.Background())
	return res, r, err
}

// TestSimDigest pins every simulator result over X-MAC, B-MAC, DMAC and
// LMAC × {no traffic, light periodic, heavy periodic, bursty} ×
// {perfect, lossy with capture} × {fixed, two-phase, churn only,
// battery only, churn + battery} × 2 seeds. On cells without churn it
// also checks energy conservation (see checkDwellTimes).
func TestSimDigest(t *testing.T) {
	if n := reflect.TypeOf(Result{}).NumField(); n != 19 {
		t.Fatalf("Result has %d fields, the digest hashes 19: hash the new field", n)
	}
	if n := reflect.TypeOf(Metrics{}).NumField(); n != 5 {
		t.Fatalf("Metrics has %d fields, the digest hashes 5: hash the new field", n)
	}
	perfect, lossy := digestNetworks(t)
	prof := radio.CC2420()
	d := simDigester{fnv.New64a()}
	var undrained []string
	var recoveries, collisions, losses, captures int
	for _, p := range digestProtocols {
		for _, tr := range digestTraffic {
			for _, ch := range []string{"perfect", "lossy"} {
				for _, mode := range digestModes {
					for _, seed := range []int64{1, 2} {
						cfg := Config{
							Protocol: p.name,
							Network:  perfect,
							Radio:    prof,
							Params:   p.a,
							Traffic:  tr.model,
							Payload:  32,
							Duration: digestDuration,
							Seed:     seed,
						}
						if ch == "lossy" {
							cfg.Network = lossy
							cfg.Capture = true
						}
						name := fmt.Sprintf("%s/%s/%s/%s/%d", p.name, tr.name, ch, mode, seed)
						d.tag(name)
						res, r, err := digestRun(cfg, mode, p.b, p.capacity)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						d.result(res)
						if mode == "battery" && res.Deaths == 0 {
							undrained = append(undrained, name)
						}
						recoveries += res.Recoveries
						collisions += res.Collisions
						losses += res.ChannelLosses
						captures += res.Captures
						if r.fs == nil || mode == "battery" {
							checkDwellTimes(t, name, r)
						}
					}
				}
			}
		}
	}
	if len(undrained) > 0 {
		t.Errorf("no battery death in %v: the capacity no longer drains mid-run", undrained)
	}
	if recoveries == 0 || collisions == 0 || losses == 0 || captures == 0 {
		t.Fatalf("grid no longer spans every outcome: %d recoveries, %d collisions, %d channel losses, %d captures",
			recoveries, collisions, losses, captures)
	}
	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != simDigest {
		t.Fatalf("simulator digest = %s, want %s: a simulator result moved", got, simDigest)
	}
}

// checkDwellTimes asserts energy conservation on a run without churn:
// a living node's time in sleep, listen, receive and transmit adds up
// to the run length, and a node whose battery died has drawn its
// capacity and dwelt less than the run length.
func checkDwellTimes(t *testing.T, name string, r *runner) {
	t.Helper()
	for i := range r.nodes {
		sum := 0.0
		for _, s := range []radio.State{radio.Sleep, radio.Listen, radio.Rx, radio.Tx} {
			sum += r.med.acc[i*5+int(s)]
		}
		if r.fs != nil && r.fs.batteryDead[i] {
			capacity, drawn := r.fs.capacity[i], r.med.xcvrs[i].Energy()
			if rel := math.Abs(drawn-capacity) / capacity; rel > 1e-12 {
				t.Errorf("%s: node %d died of its battery having drawn %v J of %v J (rel. error %.2g)",
					name, i, drawn, capacity, rel)
			}
			if sum >= r.cfg.Duration {
				t.Errorf("%s: node %d died of its battery yet dwelt %v s of a %v s run",
					name, i, sum, r.cfg.Duration)
			}
			continue
		}
		if rel := math.Abs(sum-r.cfg.Duration) / r.cfg.Duration; rel > 1e-9 {
			t.Errorf("%s: node %d dwell times sum to %v s over a %v s run (rel. error %.2g)",
				name, i, sum, r.cfg.Duration, rel)
		}
	}
}

package sim

import (
	"fmt"
	"math"
	"reflect"

	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// Materialized is the immutable world of a simulation config:
// everything a run derives from the topology, the channel stamping and
// the traffic model that does not depend on which rep is running. Every
// run reads its neighbour lists, parents, link-PRR/gain tables, LMAC
// slot plan and arrival schedules from exactly one world: Config.Shared
// when it fits the config, otherwise one the runner builds for itself
// with the constructor Materialize uses. A world built once by
// Materialize and attached to Config.Shared serves repeated runs over
// the same scenario — the static/adaptive pair of a suite cell, the
// reps of a batch sweep — without re-deriving any of it.
//
// Sharing contract: a Materialized is read-only after construction and
// safe for concurrent use by any number of runs. Consumers (Medium,
// the runners, the MAC builders) may retain and index its slices but
// must never write through them; nothing here aliases mutable run
// state. A world fits a config over the same *topology.Network object,
// and a config that wants capture only when it holds gain tables (see
// fits). Lookups a fitting world was not built for — another seed's or
// workload's arrivals, a re-bargained LMAC frame size — are derived
// fresh by its methods. A stale or mismatched Shared therefore never
// changes results, only how much setup work a run re-does.
type Materialized struct {
	net      *topology.Network
	seed     int64
	duration float64
	traffic  traffic.Model

	// Structural tables, valid for any run over net. linkPRR[from][k]
	// and linkGain[from][k] describe the directed link from → nbrs[from][k].
	nbrs     [][]topology.NodeID
	parents  []topology.NodeID
	depth    int
	linkPRR  [][]float64 // nil unless the network is lossy
	linkGain [][]float64 // nil unless the network is lossy or the config wants capture

	// LMAC two-hop slot plan for slotsFor frame slots; nil slots means
	// no plan, and every frame size is derived on demand.
	slotsFor int
	slots    []int
	occupied []bool // occupied[s]: some node owns slot s

	// arrivals[i] is node i's full precomputed arrival schedule for
	// (traffic, seed, duration) — the exact slices the runners would
	// derive themselves (index 0, the sink, is nil).
	arrivals [][]float64
}

// Materialize builds the shared world of cfg. The config must be
// runnable (it is validated first); the parameter vector only matters
// for LMAC, where it fixes the slot plan's frame size.
func Materialize(cfg Config) (*Materialized, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newWorld(&cfg)
	if cfg.Protocol == "lmac" {
		m.slotsFor = int(math.Round(cfg.Params[0]))
		var err error
		if m.slots, m.occupied, err = slotPlan(cfg.Network, m.slotsFor); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newWorld derives every table of cfg's world but the LMAC slot plan:
// a run that builds its own world derives the plan of each frame size
// it deploys through slotPlanFor (once, see runner.lmacPlan), and the
// epoch that deploys an unschedulable frame reports it. Gain tables are
// built when the network is lossy or cfg wants capture; on a
// never-stamped network every gain is 0.
func newWorld(cfg *Config) *Materialized {
	net := cfg.Network
	n := net.N()
	m := &Materialized{
		net:      net,
		seed:     cfg.Seed,
		duration: cfg.Duration,
		traffic:  cfg.Traffic,
		nbrs:     make([][]topology.NodeID, n),
		parents:  make([]topology.NodeID, n),
		depth:    net.Depth(),
		arrivals: arrivalSchedules(*cfg),
	}
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		m.nbrs[i] = net.Neighbors(id)
		m.parents[i] = net.Parent(id)
	}
	if net.Lossy() {
		m.linkPRR = m.linkTable(net.LinkPRR)
	}
	if net.Lossy() || cfg.Capture {
		m.linkGain = m.linkTable(net.LinkGainDB)
	}
	return m
}

// linkTable tabulates f over every directed link, in nbrs order.
func (m *Materialized) linkTable(f func(from, to topology.NodeID) float64) [][]float64 {
	t := make([][]float64, len(m.nbrs))
	for i, nbrs := range m.nbrs {
		t[i] = make([]float64, len(nbrs))
		for k, nb := range nbrs {
			t[i][k] = f(topology.NodeID(i), nb)
		}
	}
	return t
}

// slotPlan derives LMAC's two-hop conflict-free schedule for a frame of
// frameSlots slots: each node's slot, and which slots some node owns.
func slotPlan(net *topology.Network, frameSlots int) ([]int, []bool, error) {
	slots, _, err := net.AssignSlots(frameSlots)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: lmac schedule: %w", err)
	}
	occupied := make([]bool, frameSlots)
	for _, s := range slots {
		occupied[s] = true
	}
	return slots, occupied, nil
}

// arrivalSchedules materializes every node's full arrival schedule
// from cfg.Traffic, indexed by node (the sink's is nil). Without a
// traffic model no node samples, and every schedule is nil.
func arrivalSchedules(cfg Config) [][]float64 {
	n := cfg.Network.N()
	all := make([][]float64, n)
	if cfg.Traffic == nil {
		return all
	}
	for i := 1; i < n; i++ {
		all[i] = cfg.Traffic.Arrivals(cfg.Network, topology.NodeID(i), cfg.Seed, cfg.Duration)
	}
	return all
}

// fits reports whether the world can serve cfg's run: it was built on
// cfg's network object and, when cfg wants capture, holds the gain
// tables the capture comparison reads. Nil-receiver safe.
func (m *Materialized) fits(cfg *Config) bool {
	return m != nil && m.net == cfg.Network && (m.linkGain != nil || !cfg.Capture)
}

// arrivalsFor returns the arrival schedules of cfg, which the world
// fits: its own when they were derived for the same seed, duration and
// workload, fresh ones otherwise.
func (m *Materialized) arrivalsFor(cfg *Config) [][]float64 {
	if m.seed != cfg.Seed || m.duration != cfg.Duration || !reflect.DeepEqual(m.traffic, cfg.Traffic) {
		return arrivalSchedules(*cfg)
	}
	return m.arrivals
}

// slotPlanFor returns the LMAC slot plan for a frame of frameSlots
// slots: the world's own when it was built for that frame size, a
// fresh one otherwise.
func (m *Materialized) slotPlanFor(frameSlots int) ([]int, []bool, error) {
	if m.slots != nil && m.slotsFor == frameSlots {
		return m.slots, m.occupied, nil
	}
	return slotPlan(m.net, frameSlots)
}

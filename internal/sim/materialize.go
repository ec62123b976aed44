package sim

import (
	"fmt"
	"math"
	"reflect"

	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// Materialized is the immutable shared world of a simulation config:
// everything a run derives from the topology, the channel stamping and
// the traffic model that does not depend on which rep is running. It is
// built once by Materialize and attached to Config.Shared, so repeated
// runs over the same scenario — the static/adaptive pair of a suite
// cell, the reps of a batch sweep, every epoch of a phased or faulty
// run — stop re-deriving neighbour tables, link-PRR/gain tables, LMAC
// slot schedules and per-node arrival schedules from scratch.
//
// Sharing contract: a Materialized is read-only after construction and
// safe for concurrent use by any number of runs. Consumers (Medium,
// the runners, the MAC builders) may retain and index its slices but
// must never write through them; nothing here aliases mutable run
// state. The structural tables (neighbours, parents, link PRR/gain,
// slot plans) apply to any config over the same *topology.Network;
// the arrival schedules additionally require the same traffic model,
// sample rate, seed and duration, and are ignored — each run falls
// back to deriving its own — when any of those differ. A stale or
// mismatched Shared therefore never changes results, only how much
// setup work a run re-does.
type Materialized struct {
	net        *topology.Network
	seed       int64
	duration   float64
	sampleRate float64
	traffic    traffic.Model

	// Structural tables, valid for any run over net.
	nbrs     [][]topology.NodeID
	parents  []topology.NodeID
	depth    int
	linkPRR  [][]float64 // nil on perfect channels
	linkGain [][]float64 // nil unless the network stamps link gains

	// LMAC two-hop slot plan for slotsFor frame slots (0 = no plan).
	// Adaptive runs that re-bargain onto a different slot count fall
	// back to a fresh AssignSlots for that epoch.
	slotsFor int
	slots    []int
	bySlot   map[int]topology.NodeID

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
	n := cfg.Network.N()
	m := &Materialized{
		net:        cfg.Network,
		seed:       cfg.Seed,
		duration:   cfg.Duration,
		sampleRate: cfg.SampleRate,
		traffic:    cfg.Traffic,
		nbrs:       make([][]topology.NodeID, n),
		parents:    make([]topology.NodeID, n),
		depth:      cfg.Network.Depth(),
		arrivals:   make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		m.nbrs[i] = cfg.Network.Neighbors(id)
		m.parents[i] = cfg.Network.Parent(id)
	}
	if cfg.Network.Lossy() {
		m.linkPRR = make([][]float64, n)
		m.linkGain = make([][]float64, n)
		for i, nbrs := range m.nbrs {
			from := topology.NodeID(i)
			m.linkPRR[i] = make([]float64, len(nbrs))
			m.linkGain[i] = make([]float64, len(nbrs))
			for k, nb := range nbrs {
				m.linkPRR[i][k] = cfg.Network.LinkPRR(from, nb)
				m.linkGain[i][k] = cfg.Network.LinkGainDB(from, nb)
			}
		}
	}
	for i := 1; i < n; i++ {
		m.arrivals[i] = arrivalSchedule(cfg, topology.NodeID(i))
	}
	if cfg.Protocol == "lmac" {
		m.slotsFor = int(math.Round(cfg.Params[0]))
		var err error
		if m.slots, m.bySlot, err = slotPlan(cfg.Network, m.slotsFor); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// slotPlan derives LMAC's two-hop conflict-free schedule for a frame of
// frameSlots slots: each node's slot and the owner of each used slot.
func slotPlan(net *topology.Network, frameSlots int) ([]int, map[int]topology.NodeID, error) {
	slots, _, err := net.AssignSlots(frameSlots)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: lmac schedule: %w", err)
	}
	bySlot := make(map[int]topology.NodeID, len(slots))
	for id, s := range slots {
		bySlot[s] = topology.NodeID(id)
	}
	return slots, bySlot, nil
}

// structuralFor reports whether the structural tables apply to cfg:
// they only require the identical network object. Nil-receiver safe.
func (m *Materialized) structuralFor(cfg *Config) bool {
	return m != nil && m.net == cfg.Network
}

// arrivalsFor returns the precomputed arrival schedules when they are
// exactly the ones cfg's runners would derive — same network, seed,
// duration and workload — and nil otherwise. Nil-receiver safe.
func (m *Materialized) arrivalsFor(cfg *Config) [][]float64 {
	if m == nil || m.net != cfg.Network || m.seed != cfg.Seed ||
		m.duration != cfg.Duration || m.sampleRate != cfg.SampleRate ||
		!reflect.DeepEqual(m.traffic, cfg.Traffic) {
		return nil
	}
	return m.arrivals
}

// slotPlanFor returns the shared LMAC slot plan when it was built for
// cfg's network with exactly frameSlots slots, else (nil, nil).
// Nil-receiver safe.
func (m *Materialized) slotPlanFor(cfg *Config, frameSlots int) ([]int, map[int]topology.NodeID) {
	if !m.structuralFor(cfg) || m.slotsFor != frameSlots {
		return nil, nil
	}
	return m.slots, m.bySlot
}

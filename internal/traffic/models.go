package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/edmac-project/edmac/internal/lazyrand"
	"github.com/edmac-project/edmac/internal/topology"
)

// Model describes an application traffic pattern on an explicit network.
// It serves two consumers at once: the analytic side reads the long-run
// MeanRates (which, averaged, feed the closed-form MAC models), and the
// simulator replays the exact packet creation times from Arrivals.
//
// Models are immutable value types. Arrivals is deterministic: equal
// (net, id, seed, duration) always return the same schedule, which is
// what makes scenario suites byte-for-byte reproducible.
type Model interface {
	// Kind returns the model's registry name ("periodic", "bursty",
	// "event", "heterogeneous").
	Kind() string
	// Validate reports whether the model parameters are usable.
	Validate() error
	// MeanRates returns every node's long-run average generation rate in
	// packets per second, indexed by topology.NodeID. The sink (ID 0)
	// never generates and has rate 0.
	MeanRates(net *topology.Network) []float64
	// Arrivals returns node id's packet creation times within
	// (0, duration), sorted ascending. The sink's schedule is empty.
	Arrivals(net *topology.Network, id topology.NodeID, seed int64, duration float64) []float64
}

// nodeRng derives node id's private random stream for a traffic model.
// The salt separates streams of different models and roles so adding a
// draw to one never perturbs another. The stream is math/rand's for the
// derived seed, bit for bit, built by lazyrand: a schedule that draws a
// few values computes a few state words, not all 607.
func nodeRng(seed int64, id topology.NodeID, salt int64) *rand.Rand {
	return lazyrand.New(seed ^ (int64(id)*1000003 + salt))
}

// Periodic is the baseline sensing workload: every node samples at Rate
// packets per second with a random initial phase — the traffic the
// closed-form models assume.
type Periodic struct {
	// Rate is the per-node sampling rate Fs in packets per second.
	Rate float64
}

// Kind returns "periodic".
func (m Periodic) Kind() string { return "periodic" }

// Validate reports whether the rate is usable.
func (m Periodic) Validate() error {
	if m.Rate <= 0 {
		return fmt.Errorf("traffic: periodic rate %v must be positive", m.Rate)
	}
	return nil
}

// MeanRates returns Rate for every node but the sink.
func (m Periodic) MeanRates(net *topology.Network) []float64 {
	return uniformRates(net, m.Rate)
}

// Arrivals returns the node's phase-shifted sampling instants.
func (m Periodic) Arrivals(net *topology.Network, id topology.NodeID, seed int64, duration float64) []float64 {
	if id == 0 {
		return nil
	}
	rng := nodeRng(seed, id, 101)
	return periodicArrivals(rng, m.Rate, duration)
}

// Bursty is a Markov-modulated on-off workload: each node independently
// alternates exponential ON periods (mean OnMean seconds), during which
// it emits a Poisson stream at PeakRate, with exponential OFF silences
// (mean OffMean). The long-run mean rate is PeakRate·OnMean/(OnMean+OffMean),
// but packets arrive in bursts that stress queues and collision recovery
// far beyond what a periodic stream of the same mean would.
type Bursty struct {
	// PeakRate is the packets-per-second rate while a burst is on.
	PeakRate float64
	// OnMean and OffMean are the mean burst and silence durations in
	// seconds.
	OnMean, OffMean float64
}

// Kind returns "bursty".
func (m Bursty) Kind() string { return "bursty" }

// Validate reports whether the on-off parameters are usable.
func (m Bursty) Validate() error {
	if m.PeakRate <= 0 {
		return fmt.Errorf("traffic: bursty peak rate %v must be positive", m.PeakRate)
	}
	if m.OnMean <= 0 || m.OffMean <= 0 {
		return fmt.Errorf("traffic: bursty on/off means %v/%v must be positive", m.OnMean, m.OffMean)
	}
	return nil
}

// MeanRate returns the long-run per-node average rate.
func (m Bursty) MeanRate() float64 {
	return m.PeakRate * m.OnMean / (m.OnMean + m.OffMean)
}

// MeanRates returns the duty-cycled mean rate for every node but the sink.
func (m Bursty) MeanRates(net *topology.Network) []float64 {
	return uniformRates(net, m.MeanRate())
}

// Arrivals simulates the node's on-off chain and the Poisson stream
// inside each ON period.
func (m Bursty) Arrivals(net *topology.Network, id topology.NodeID, seed int64, duration float64) []float64 {
	if id == 0 {
		return nil
	}
	rng := nodeRng(seed, id, 211)
	var times []float64
	t := 0.0
	// Start in ON with the stationary probability.
	on := rng.Float64() < m.OnMean/(m.OnMean+m.OffMean)
	for t < duration {
		if !on {
			t += rng.ExpFloat64() * m.OffMean
			on = true
			continue
		}
		end := t + rng.ExpFloat64()*m.OnMean
		for {
			t += rng.ExpFloat64() / m.PeakRate
			if t >= end || t >= duration {
				break
			}
			times = append(times, t)
		}
		t = end
		on = false
	}
	return times
}

// Event is an event-driven, spatially-correlated workload: point events
// (an intrusion, a seismic shock, a machine fault) occur as a Poisson
// process over the deployment area, and every node within EventRadius of
// an event reports it after a small random sensing delay. Nearby nodes
// therefore transmit almost simultaneously — the correlated contention
// burst that periodic models never produce. An optional BackgroundRate
// adds periodic housekeeping traffic at every node.
type Event struct {
	// EventRate is the area-wide event rate in events per second.
	EventRate float64
	// EventRadius is the sensing radius in radio-range units: nodes
	// within it of an event's location report it.
	EventRadius float64
	// BackgroundRate is an optional per-node periodic rate on top of the
	// event reports (0 disables it).
	BackgroundRate float64
}

// maxSensingDelay bounds the per-node uniform reporting jitter after an
// event, in seconds.
const maxSensingDelay = 0.05

// Kind returns "event".
func (m Event) Kind() string { return "event" }

// Validate reports whether the event parameters are usable.
func (m Event) Validate() error {
	if m.EventRate <= 0 {
		return fmt.Errorf("traffic: event rate %v must be positive", m.EventRate)
	}
	if m.EventRadius <= 0 {
		return fmt.Errorf("traffic: event radius %v must be positive", m.EventRadius)
	}
	if m.BackgroundRate < 0 {
		return fmt.Errorf("traffic: background rate %v must be non-negative", m.BackgroundRate)
	}
	return nil
}

// fieldRadius is the radius of the disk events are drawn from: the
// smallest sink-centred disk covering every node, with a minimum of one
// radio range so single-hop networks still see off-node events.
func (m Event) fieldRadius(net *topology.Network) float64 {
	r := 1.0
	for i := 0; i < net.N(); i++ {
		if d := net.Position(topology.NodeID(i)).Dist(topology.Point{}); d > r {
			r = d
		}
	}
	return r
}

// MeanRates returns each node's exact long-run rate: the background rate
// plus EventRate times the probability that a uniform event falls within
// EventRadius of the node — the lens-shaped intersection of the sensing
// disk with the field disk, in closed form.
func (m Event) MeanRates(net *topology.Network) []float64 {
	rates := make([]float64, net.N())
	rf := m.fieldRadius(net)
	field := math.Pi * rf * rf
	for i := 1; i < net.N(); i++ {
		d := net.Position(topology.NodeID(i)).Dist(topology.Point{})
		p := circleIntersectionArea(d, m.EventRadius, rf) / field
		rates[i] = m.BackgroundRate + m.EventRate*p
	}
	return rates
}

// Arrivals derives the shared event schedule from the seed alone — every
// node sees the same events, which is what correlates the bursts — then
// filters the events node id senses and adds its private sensing delays
// and background stream.
func (m Event) Arrivals(net *topology.Network, id topology.NodeID, seed int64, duration float64) []float64 {
	if id == 0 {
		return nil
	}
	rf := m.fieldRadius(net)
	// The global schedule: one stream for all nodes (salt only, no id).
	global := nodeRng(seed, 0, 307)
	private := nodeRng(seed, id, 311)
	pos := net.Position(id)
	var times []float64
	for t := global.ExpFloat64() / m.EventRate; t < duration; t += global.ExpFloat64() / m.EventRate {
		r := rf * math.Sqrt(global.Float64())
		theta := 2 * math.Pi * global.Float64()
		loc := topology.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
		if pos.Dist(loc) > m.EventRadius {
			continue
		}
		at := t + private.Float64()*maxSensingDelay
		if at < duration {
			times = append(times, at)
		}
	}
	if m.BackgroundRate > 0 {
		times = append(times, periodicArrivals(private, m.BackgroundRate, duration)...)
	}
	// Sensing jitter can reorder reports of events closer together than
	// maxSensingDelay, so sorting is needed even without background.
	sort.Float64s(times)
	return times
}

// Heterogeneous is a periodic workload with per-node rates graded by hop
// distance: ring-1 nodes sample at BaseRate and the outermost ring at
// BaseRate·OuterFactor, interpolating linearly in between. Factors above
// 1 model edge-heavy sensing (perimeter surveillance); factors below 1
// model sink-heavy workloads.
type Heterogeneous struct {
	// BaseRate is the sampling rate of ring-1 nodes in packets per second.
	BaseRate float64
	// OuterFactor scales the outermost ring's rate relative to BaseRate.
	OuterFactor float64
}

// Kind returns "heterogeneous".
func (m Heterogeneous) Kind() string { return "heterogeneous" }

// Validate reports whether the gradient parameters are usable.
func (m Heterogeneous) Validate() error {
	if m.BaseRate <= 0 {
		return fmt.Errorf("traffic: heterogeneous base rate %v must be positive", m.BaseRate)
	}
	if m.OuterFactor <= 0 {
		return fmt.Errorf("traffic: heterogeneous outer factor %v must be positive", m.OuterFactor)
	}
	return nil
}

// rate returns the sampling rate of a node at the given ring.
func (m Heterogeneous) rate(ring, depth int) float64 {
	if depth <= 1 {
		return m.BaseRate
	}
	f := float64(ring-1) / float64(depth-1)
	return m.BaseRate * (1 + (m.OuterFactor-1)*f)
}

// MeanRates returns the ring-graded rate of every node but the sink.
func (m Heterogeneous) MeanRates(net *topology.Network) []float64 {
	rates := make([]float64, net.N())
	for i := 1; i < net.N(); i++ {
		rates[i] = m.rate(net.Ring(topology.NodeID(i)), net.Depth())
	}
	return rates
}

// Arrivals returns the node's phase-shifted sampling instants at its
// ring's rate.
func (m Heterogeneous) Arrivals(net *topology.Network, id topology.NodeID, seed int64, duration float64) []float64 {
	if id == 0 {
		return nil
	}
	rng := nodeRng(seed, id, 401)
	return periodicArrivals(rng, m.rate(net.Ring(id), net.Depth()), duration)
}

// uniformRates returns a rate vector with the same rate at every node
// but the sink.
func uniformRates(net *topology.Network, rate float64) []float64 {
	rates := make([]float64, net.N())
	for i := 1; i < len(rates); i++ {
		rates[i] = rate
	}
	return rates
}

// periodicArrivals returns the instants of a rate-Hz periodic stream
// with a random initial phase, within (0, duration).
func periodicArrivals(rng *rand.Rand, rate, duration float64) []float64 {
	period := 1 / rate
	var times []float64
	for t := rng.Float64() * period; t < duration; t += period {
		times = append(times, t)
	}
	return times
}

// circleIntersectionArea returns the area of the intersection of two
// circles with radii r and R whose centres are d apart.
func circleIntersectionArea(d, r, R float64) float64 {
	if r > R {
		r, R = R, r
	}
	if d >= r+R {
		return 0
	}
	if d <= R-r {
		return math.Pi * r * r
	}
	d2, r2, R2 := d*d, r*r, R*R
	a := r2 * math.Acos((d2+r2-R2)/(2*d*r))
	b := R2 * math.Acos((d2+R2-r2)/(2*d*R))
	c := 0.5 * math.Sqrt((-d+r+R)*(d+r-R)*(d-r+R)*(d+r+R))
	return a + b - c
}

package sim

import (
	"math"
	"sort"

	"github.com/edmac-project/edmac/internal/topology"
)

// delaySample is one delivered packet's end-to-end delay, tagged with
// its origin so validation can compare specific rings against the
// analytic per-ring predictions.
type delaySample struct {
	origin topology.NodeID
	delay  float64
}

// Metrics aggregates application-level outcomes of a run.
type Metrics struct {
	generated  int
	delivered  int
	duplicates int
	dropped    int
	samples    []delaySample
}

// Generated returns the number of application packets sampled.
func (m *Metrics) Generated() int { return m.generated }

// Delivered returns the number of distinct packets that reached the
// sink; protocol-level duplicates are counted separately (Duplicates).
func (m *Metrics) Delivered() int { return m.delivered }

// Duplicates returns the number of redundant sink receptions: copies of
// already-delivered packets retransmitted after a lost ACK.
func (m *Metrics) Duplicates() int { return m.duplicates }

// Dropped returns the number of packets abandoned after retry exhaustion
// or queue overflow.
func (m *Metrics) Dropped() int { return m.dropped }

// DeliveryRatio returns delivered/generated, defined as 0 for an idle
// run — the one convention this layer and the public SimReport share,
// so the two can never disagree. Deliveries are deduplicated, so the
// ratio never exceeds 1.
func (m *Metrics) DeliveryRatio() float64 {
	if m.generated == 0 {
		return 0
	}
	return float64(m.delivered) / float64(m.generated)
}

// MeanDelay returns the mean end-to-end delay in seconds (NaN when
// nothing was delivered).
func (m *Metrics) MeanDelay() float64 {
	if len(m.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, s := range m.samples {
		sum += s.delay
	}
	return sum / float64(len(m.samples))
}

// MeanDelayFrom returns the mean delay of packets whose origin satisfies
// the predicate, NaN when no such packet was delivered. Validation uses
// it to isolate the outermost ring, the analytic models' reference.
func (m *Metrics) MeanDelayFrom(origin func(topology.NodeID) bool) float64 {
	sum, n := 0.0, 0
	for _, s := range m.samples {
		if origin(s.origin) {
			sum += s.delay
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MaxDelay returns the largest observed end-to-end delay, NaN when
// nothing was delivered.
func (m *Metrics) MaxDelay() float64 {
	if len(m.samples) == 0 {
		return math.NaN()
	}
	max := 0.0
	for _, s := range m.samples {
		if s.delay > max {
			max = s.delay
		}
	}
	return max
}

// QuantileDelay returns the q-quantile (0 < q <= 1) of observed delays,
// NaN when nothing was delivered.
func (m *Metrics) QuantileDelay(q float64) float64 {
	if len(m.samples) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(m.samples))
	for i, s := range m.samples {
		sorted[i] = s.delay
	}
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func (m *Metrics) recordGenerated() { m.generated++ }
func (m *Metrics) recordDuplicate() { m.duplicates++ }
func (m *Metrics) recordDropped()   { m.dropped++ }
func (m *Metrics) recordDelivery(origin topology.NodeID, delay Time) {
	m.delivered++
	m.samples = append(m.samples, delaySample{origin: origin, delay: delay})
}

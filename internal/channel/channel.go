// Package channel models the quality of the wireless links of a
// deployment: which fraction of frames a link delivers (its packet
// reception ratio, PRR) and how strong the received signal is relative
// to other links (its gain, which drives the capture effect in the
// simulator's collision model).
//
// A channel model stamps every link of a topology.Network with a PRR
// and a gain once, at scenario materialization (Apply). All randomness
// a model needs — the frozen log-normal shadowing of a link, say — is
// drawn from a deterministic per-link stream derived from the scenario
// seed and the link's identity (LinkSeed), so equal specs always
// produce byte-identical link tables, independent of iteration order,
// platform or parallelism.
//
// Three models are provided:
//
//   - Perfect: today's unit-disk behaviour — every frame inside range
//     decodes (PRR 1 everywhere). Applying it is a no-op.
//   - Bernoulli: every link delivers independently with one fixed PRR.
//   - Shadowing: log-normal shadowing over distance-dependent path
//     loss — each link's SNR margin is its mean margin at that distance
//     plus a per-link frozen Gaussian offset, mapped to a PRR through a
//     logistic decode curve. Nearby links are near-perfect, links at
//     the unit-disk edge are marginal, and individual links deviate
//     persistently in both directions, as measured deployments do.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/edmac-project/edmac/internal/lazyrand"
	"github.com/edmac-project/edmac/internal/topology"
)

// DefaultCaptureDB is the power margin, in dB, a frame needs over a
// colliding frame to survive the overlap when the capture effect is
// enabled and no explicit threshold is given. 3 dB (twice the power) is
// the classic textbook capture threshold.
const DefaultCaptureDB = 3.0

// Model is one link-quality family. Implementations are immutable
// values; equal values describe equal channels.
type Model interface {
	// Validate reports whether the parameters are usable.
	Validate() error
	// Link returns the PRR and gain (in dB, relative to the decode
	// threshold) of one link of length dist (in radio-range units,
	// 0 < dist <= 1). Any randomness — a frozen shadowing offset — is
	// drawn from rng, the link's deterministic stream; models must draw
	// a fixed number of values so link tables stay reproducible.
	Link(dist float64, rng *rand.Rand) (prr, gainDB float64)
}

// Perfect is the lossless unit-disk channel: every frame inside range
// decodes. It is the zero-configuration default; applying it stamps
// unit PRRs (leaving the network non-lossy, so legacy runs stay
// byte-identical) with path-loss gains for the capture comparison.
type Perfect struct{}

// Validate implements Model.
func (Perfect) Validate() error { return nil }

// Link implements Model: PRR 1, gain from pure path loss (so a capture
// threshold still has distances to compare, should a caller enable it).
func (Perfect) Link(dist float64, _ *rand.Rand) (float64, float64) {
	return 1, pathGainDB(defaultPathLossExp, dist)
}

// Bernoulli delivers every frame independently with one fixed PRR on
// every link, regardless of distance — the simplest lossy channel, and
// the one analytic loss models usually assume.
type Bernoulli struct {
	// PRR is the per-frame delivery probability of every link, in (0, 1].
	PRR float64
}

// Validate implements Model.
func (m Bernoulli) Validate() error {
	if m.PRR <= 0 || m.PRR > 1 {
		return fmt.Errorf("channel: bernoulli prr %v must be in (0, 1]", m.PRR)
	}
	return nil
}

// Link implements Model: the fixed PRR, gain from pure path loss.
func (m Bernoulli) Link(dist float64, _ *rand.Rand) (float64, float64) {
	return m.PRR, pathGainDB(defaultPathLossExp, dist)
}

// Shadowing defaults, chosen so that the zero-value-with-defaults model
// is a moderately harsh outdoor channel: links at half the radio range
// are near-perfect, links at the edge deliver roughly 85-95%, and the
// frozen per-link deviation moves individual links a few dB either way.
const (
	defaultPathLossExp  = 3.0
	defaultSigmaDB      = 4.0
	defaultEdgeMarginDB = 6.0
	defaultWidthDB      = 3.0
)

// Shadowing is log-normal shadowing over power-law path loss. A link of
// length d (radio-range units) has mean SNR margin
//
//	margin(d) = EdgeMarginDB + 10·PathLossExp·log10(1/d)  [dB]
//
// — EdgeMarginDB at the unit-disk edge, growing as the link shortens —
// plus a frozen per-link Gaussian offset with deviation SigmaDB. The
// margin maps to a PRR through a logistic decode curve of width WidthDB:
// prr = 1 / (1 + 10^(−margin/WidthDB)). The frozen offset is drawn once
// per undirected link from its deterministic stream, so a bad link is
// persistently bad, as in real deployments.
type Shadowing struct {
	// PathLossExp is the path-loss exponent (2 free space, 3-4 cluttered).
	// Zero selects the default 3.0.
	PathLossExp float64
	// SigmaDB is the log-normal shadowing deviation in dB. Zero selects
	// the default 4.0.
	SigmaDB float64
	// EdgeMarginDB is the mean SNR margin of a link at exactly the radio
	// range, in dB above the decode threshold. Zero selects the default
	// 6.0.
	EdgeMarginDB float64
	// WidthDB is the logistic decode-curve width in dB. Zero selects the
	// default 3.0.
	WidthDB float64
}

// withDefaults fills zero fields with the package defaults.
func (m Shadowing) withDefaults() Shadowing {
	if m.PathLossExp == 0 {
		m.PathLossExp = defaultPathLossExp
	}
	if m.SigmaDB == 0 {
		m.SigmaDB = defaultSigmaDB
	}
	if m.EdgeMarginDB == 0 {
		m.EdgeMarginDB = defaultEdgeMarginDB
	}
	if m.WidthDB == 0 {
		m.WidthDB = defaultWidthDB
	}
	return m
}

// Validate implements Model.
func (m Shadowing) Validate() error {
	d := m.withDefaults()
	switch {
	case d.PathLossExp < 1 || d.PathLossExp > 6:
		return fmt.Errorf("channel: shadowing path-loss exponent %v must be in [1, 6]", d.PathLossExp)
	case d.SigmaDB < 0 || d.SigmaDB > 20:
		return fmt.Errorf("channel: shadowing sigma %v dB must be in [0, 20]", d.SigmaDB)
	case d.WidthDB <= 0:
		return fmt.Errorf("channel: shadowing decode width %v dB must be positive", d.WidthDB)
	}
	return nil
}

// Link implements Model.
func (m Shadowing) Link(dist float64, rng *rand.Rand) (float64, float64) {
	d := m.withDefaults()
	margin := d.EdgeMarginDB + pathGainDB(d.PathLossExp, dist) + rng.NormFloat64()*d.SigmaDB
	return logisticPRR(margin, d.WidthDB), margin
}

// pathGainDB is the distance-dependent part of the received power,
// normalized to 0 dB at the unit-disk edge: 10·η·log10(1/d).
func pathGainDB(exp, dist float64) float64 {
	if dist <= 0 {
		dist = 1e-3
	}
	return 10 * exp * math.Log10(1/dist)
}

// logisticPRR maps an SNR margin to a delivery probability through a
// base-10 logistic of the given width, clamped away from exact 0 so a
// retry always has a chance (PRR 1 is reachable: a margin beyond the
// float resolution of the logistic rounds to exactly 1).
func logisticPRR(marginDB, widthDB float64) float64 {
	prr := 1 / (1 + math.Pow(10, -marginDB/widthDB))
	if prr < 1e-6 {
		prr = 1e-6
	}
	return prr
}

// New returns the named channel model with the given parameters already
// validated. Recognized kinds: "perfect", "bernoulli", "shadowing".
func New(kind string, b Bernoulli, s Shadowing) (Model, error) {
	var m Model
	switch kind {
	case "perfect", "":
		m = Perfect{}
	case "bernoulli":
		m = b
	case "shadowing":
		m = s
	default:
		return nil, fmt.Errorf("channel: unknown model %q (want perfect, bernoulli or shadowing)", kind)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// LinkSeed derives the deterministic RNG seed of the undirected link
// {a, b} from a base seed, via a splitmix64-style finalizer over the
// ordered pair. The derivation is part of the reproducibility contract
// — link tables and reception draws must be stable across releases — so
// it is pinned by tests and must not change.
func LinkSeed(base int64, a, b topology.NodeID) int64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	z := uint64(base) ^ (uint64(uint32(lo))<<32 | uint64(uint32(hi)))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// DirectedLinkSeed derives the seed of the directed link a→b: the
// undirected seed re-mixed with the direction, so the two directions of
// one link get decorrelated reception-draw streams while the frozen
// link quality (seeded by LinkSeed) stays symmetric.
func DirectedLinkSeed(base int64, from, to topology.NodeID) int64 {
	z := uint64(LinkSeed(base, from, to))
	if from < to {
		z += 0x9e3779b97f4a7c15
	} else {
		z += 0x2545f4914f6cdd1d
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// DrawStream is the reception-draw stream of one directed link: a
// splitmix64 generator whose whole state is 8 bytes, so a medium can
// afford one per directed link (a full math/rand generator carries a
// ~5 KB lagged-Fibonacci table — three orders of magnitude more). Like
// LinkSeed, the sequence is part of the reproducibility contract and
// pinned by tests.
type DrawStream uint64

// NewDrawStream starts a stream from a seed (use DirectedLinkSeed).
func NewDrawStream(seed int64) DrawStream { return DrawStream(seed) }

// Float64 advances the stream and returns the next draw in [0, 1).
func (s *DrawStream) Float64() float64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Apply stamps every link of the network with the model's PRR and gain,
// deterministically in seed. Link quality is symmetric: both directions
// of a link share one frozen draw (real shadowing is a property of the
// path, not the direction). Applying Perfect stamps unit PRRs with pure
// path-loss gains: the network stays non-lossy (the simulator's
// delivery draws never engage, so legacy behaviour is byte-identical),
// but the capture effect still has distances to compare.
//
// Each link draws from math/rand's stream for its LinkSeed, bit for
// bit: one lazyrand generator is reseeded per link, which costs O(1),
// and a link's draw computes only the few state words it reads.
func Apply(m Model, net *topology.Network, seed int64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	n := net.N()
	rng := lazyrand.New(0)
	for i := 0; i < n; i++ {
		a := topology.NodeID(i)
		for _, b := range net.Neighbors(a) {
			if b < a {
				continue // one draw per undirected link
			}
			rng.Seed(LinkSeed(seed, a, b))
			// Positions are in radio-range units, so a neighbour is
			// always within (0, 1].
			prr, gain := m.Link(net.Position(a).Dist(net.Position(b)), rng)
			net.SetLink(a, b, prr, gain)
			net.SetLink(b, a, prr, gain)
		}
	}
	return nil
}

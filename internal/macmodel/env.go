// Package macmodel provides closed-form energy and latency models of
// duty-cycled MAC protocols — X-MAC, DMAC, LMAC, and B-MAC — in the style
// of Langendoen & Meier, "Analyzing MAC protocols for low data-rate
// applications" (ACM TOSN 2010), which the paper builds its game on.
//
// Every model maps a small vector of tunable MAC parameters X to:
//
//   - Energy(X): joules consumed by the bottleneck (ring-1) node over one
//     accounting window, decomposed into the paper's components
//     E = Ecs + Etx + Erx + Eovr + Estx + Esrx (+ sleep);
//   - Delay(X): worst-case expected end-to-end latency in seconds, from a
//     ring-D node to the sink.
//
// The exact constants of the original MATLAB models are not public; these
// reconstructions keep their structure so the bargaining game sees the
// same qualitative geometry.
package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// MAC-layer frame sizes in bytes (the radio adds its PHY overhead).
// They are exported because the packet-level simulator (internal/sim)
// must put byte-identical frames on the air for the cross-validation
// against these models to be meaningful.
const (
	// DataHeaderBytes covers the MAC header (9 B) and CRC (2 B) around
	// the application payload.
	DataHeaderBytes = 11
	// AckBytes is a bare link-layer acknowledgement.
	AckBytes = 5
	// StrobeBytes is one X-MAC preamble strobe carrying the target
	// address.
	StrobeBytes = 7
	// CtrlBytes is the LMAC per-slot control section (slot ownership,
	// sync, addressing).
	CtrlBytes = 12
	// SyncBytes is a schedule-synchronization beacon (slotted protocols).
	SyncBytes = 11
)

// Env is the deployment every model is evaluated in: the radio, the ring
// topology, the application traffic, and the energy-accounting window.
type Env struct {
	// Radio is the transceiver profile.
	Radio radio.Radio
	// Rings is the analytic ring topology (depth D, density C).
	Rings topology.RingModel
	// SampleRate is the application sampling rate Fs in packets per
	// second per node.
	SampleRate float64
	// Window is the energy-accounting window W in seconds: reported
	// energies are joules consumed by a node over one window.
	Window float64
	// Payload is the application payload size in bytes.
	Payload int
	// LinkPRR is the per-link packet reception ratio the models assume
	// on every hop. The zero value means 1 (perfect links, the historic
	// behaviour), so existing Env literals are unaffected. Below 1, each
	// frame of a hop's handshake succeeds independently with this
	// probability, and the models inflate their per-packet energy and
	// per-hop delay terms by the expected attempts — see Attempts.
	LinkPRR float64
}

// RetryCap bounds the expected attempts the models charge per hop. It
// mirrors the packet-level MACs, which abandon a packet after a handful
// of retries (5 for X-MAC/B-MAC, 8 for DMAC) instead of retrying
// forever: 6 attempts is the contention protocols' worst case.
const RetryCap = 6.0

// linkPRR resolves the zero-value convention: unset means perfect.
func (e Env) linkPRR() float64 {
	if e.LinkPRR == 0 {
		return 1
	}
	return e.LinkPRR
}

// Attempts returns the expected transmission attempts per hop under the
// environment's link quality: a hop completes when both the data frame
// and its acknowledgement get through, each with probability LinkPRR,
// so the expectation is min(1/LinkPRR², RetryCap). Exactly 1 on perfect
// links, nondecreasing as the PRR falls — the lever through which the
// Nash bargain feels retransmission cost. (LMAC has no link-layer ACK;
// charging it the same expectation models the slot capacity its
// schedule must reserve to recover schedule-level losses, and keeps the
// protocols comparable under one link-quality axis.)
func (e Env) Attempts() float64 {
	p := e.linkPRR()
	if p >= 1 {
		return 1
	}
	a := 1 / (p * p)
	if a > RetryCap {
		return RetryCap
	}
	return a
}

// Default returns the calibrated scenario used throughout the paper
// reproduction: a depth-5, density-6 network of CC2420 nodes sampling
// once per 10 hours (the "very low data rate" regime of Langendoen &
// Meier), with energy accounted per minute of operation. Under it the
// three protocols land in the paper's figure ranges (≈0.04 / 0.06 /
// 0.25 J axes for X-MAC / DMAC / LMAC).
func Default() Env {
	return Env{
		Radio:      radio.CC2420(),
		Rings:      topology.RingModel{Depth: 5, Density: 6},
		SampleRate: 1.0 / 36000,
		Window:     60,
		Payload:    32,
	}
}

// Validate reports whether the environment is usable.
func (e Env) Validate() error {
	if err := e.Radio.Validate(); err != nil {
		return fmt.Errorf("macmodel: %w", err)
	}
	if err := e.Rings.Validate(); err != nil {
		return fmt.Errorf("macmodel: %w", err)
	}
	if e.SampleRate <= 0 {
		return fmt.Errorf("macmodel: sample rate %v must be positive", e.SampleRate)
	}
	if e.Window <= 0 {
		return fmt.Errorf("macmodel: window %v must be positive", e.Window)
	}
	if e.Payload <= 0 {
		return fmt.Errorf("macmodel: payload %d must be positive", e.Payload)
	}
	if e.LinkPRR < 0 || e.LinkPRR > 1 {
		return fmt.Errorf("macmodel: link PRR %v must be in [0, 1] (0 means unset/perfect)", e.LinkPRR)
	}
	return nil
}

// Flows returns the analytic per-ring traffic rates of the environment.
func (e Env) Flows() traffic.RingFlows {
	return traffic.RingFlows{Rings: e.Rings, Rate: e.SampleRate}
}

// DataAirtime returns the on-air duration of one data frame in seconds.
func (e Env) DataAirtime() float64 {
	return e.Radio.FrameAirtime(e.Payload + DataHeaderBytes)
}

// AckAirtime returns the on-air duration of one acknowledgement.
func (e Env) AckAirtime() float64 { return e.Radio.FrameAirtime(AckBytes) }

// StrobeAirtime returns the on-air duration of one X-MAC strobe.
func (e Env) StrobeAirtime() float64 { return e.Radio.FrameAirtime(StrobeBytes) }

// CtrlAirtime returns the on-air duration of one LMAC control section.
func (e Env) CtrlAirtime() float64 { return e.Radio.FrameAirtime(CtrlBytes) }

// SyncAirtime returns the on-air duration of one synchronization beacon.
func (e Env) SyncAirtime() float64 { return e.Radio.FrameAirtime(SyncBytes) }

// HeaderAirtime returns the on-air duration of a bare frame header, the
// portion an overhearing node decodes before giving up.
func (e Env) HeaderAirtime() float64 { return e.Radio.FrameAirtime(DataHeaderBytes - 2) }

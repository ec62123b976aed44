// Package radio models the electrical and timing characteristics of
// low-power wireless transceivers used by duty-cycled MAC protocols.
//
// The analytic MAC models (internal/macmodel) and the packet-level
// simulator (internal/sim) both account energy as power × time per radio
// state; this package is the single source of truth for those powers and
// for frame airtimes.
//
// All quantities use SI units: watts, seconds, joules, and bits per
// second. Times are plain float64 seconds rather than time.Duration
// because they enter closed-form expressions (divisions, square roots)
// where Duration arithmetic would obscure the math; every field and
// return value documents its unit.
package radio

import (
	"errors"
	"fmt"
)

// State identifies an operating mode of the transceiver.
type State int

const (
	// Sleep is the lowest-power state; the radio can neither send nor
	// receive and must pay Startup to leave it.
	Sleep State = iota + 1
	// Listen is idle listening: the receiver is powered but no frame is
	// currently being decoded.
	Listen
	// Rx is active frame reception.
	Rx
	// Tx is active frame transmission.
	Tx
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case Sleep:
		return "sleep"
	case Listen:
		return "listen"
	case Rx:
		return "rx"
	case Tx:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Radio describes one transceiver model. The zero value is not usable;
// construct instances with a profile function (CC2420, CC1101) or fill
// every field and call Validate.
type Radio struct {
	// Name identifies the profile, e.g. "cc2420".
	Name string
	// BitRate is the physical-layer data rate in bits per second.
	BitRate float64
	// PowerTx is the power drawn while transmitting, in watts.
	PowerTx float64
	// PowerRx is the power drawn while receiving a frame, in watts.
	PowerRx float64
	// PowerListen is the power drawn during idle listening, in watts.
	// For most transceivers it equals PowerRx.
	PowerListen float64
	// PowerSleep is the power drawn asleep, in watts.
	PowerSleep float64
	// Startup is the time to transition from Sleep to an active state,
	// in seconds. The radio draws PowerListen during startup.
	Startup float64
	// Turnaround is the rx<->tx switching time in seconds.
	Turnaround float64
	// CCA is the duration of one clear-channel assessment in seconds.
	CCA float64
	// PHYOverhead is the number of bytes the physical layer prepends to
	// every frame (preamble, start-of-frame delimiter, length field).
	PHYOverhead int
}

// Validate reports whether the radio description is physically sensible.
func (r Radio) Validate() error {
	switch {
	case r.BitRate <= 0:
		return fmt.Errorf("radio %q: bit rate %v must be positive", r.Name, r.BitRate)
	case r.PowerTx <= 0 || r.PowerRx <= 0 || r.PowerListen <= 0:
		return fmt.Errorf("radio %q: active powers must be positive", r.Name)
	case r.PowerSleep < 0:
		return fmt.Errorf("radio %q: sleep power %v must be non-negative", r.Name, r.PowerSleep)
	case r.PowerSleep >= r.PowerListen:
		return fmt.Errorf("radio %q: sleep power %v must be below listen power %v",
			r.Name, r.PowerSleep, r.PowerListen)
	case r.Startup < 0 || r.Turnaround < 0 || r.CCA <= 0:
		return fmt.Errorf("radio %q: timing parameters must be non-negative (cca positive)", r.Name)
	case r.PHYOverhead < 0:
		return fmt.Errorf("radio %q: PHY overhead %d must be non-negative", r.Name, r.PHYOverhead)
	}
	return nil
}

// Power returns the power drawn in state s, in watts.
func (r Radio) Power(s State) float64 {
	switch s {
	case Sleep:
		return r.PowerSleep
	case Listen:
		return r.PowerListen
	case Rx:
		return r.PowerRx
	case Tx:
		return r.PowerTx
	default:
		return 0
	}
}

// ByteTime returns the airtime of a single byte in seconds.
func (r Radio) ByteTime() float64 {
	return 8 / r.BitRate
}

// FrameAirtime returns the on-air duration in seconds of a frame carrying
// the given number of MAC-layer bytes, including the PHY overhead.
func (r Radio) FrameAirtime(macBytes int) float64 {
	if macBytes < 0 {
		macBytes = 0
	}
	return float64(r.PHYOverhead+macBytes) * r.ByteTime()
}

// ErrUnknownProfile is returned by Profile for unrecognized names.
var ErrUnknownProfile = errors.New("radio: unknown profile")

// Profile returns a named radio profile. Recognized names are "cc2420"
// and "cc1101" (case-sensitive).
func Profile(name string) (Radio, error) {
	switch name {
	case "cc2420":
		return CC2420(), nil
	case "cc1101":
		return CC1101(), nil
	default:
		return Radio{}, fmt.Errorf("%w: %q", ErrUnknownProfile, name)
	}
}

package radio

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestProfilesValidate(t *testing.T) {
	for _, r := range []Radio{CC2420(), CC1101()} {
		if err := r.Validate(); err != nil {
			t.Errorf("profile %s: %v", r.Name, err)
		}
	}
}

func TestProfileLookup(t *testing.T) {
	tests := []struct {
		name    string
		want    string
		wantErr bool
	}{
		{name: "cc2420", want: "cc2420"},
		{name: "cc1101", want: "cc1101"},
		{name: "nrf24", wantErr: true},
		{name: "", wantErr: true},
	}
	for _, tt := range tests {
		r, err := Profile(tt.name)
		if tt.wantErr {
			if err == nil {
				t.Errorf("Profile(%q): want error, got %+v", tt.name, r)
			}
			if !errors.Is(err, ErrUnknownProfile) {
				t.Errorf("Profile(%q): error %v does not wrap ErrUnknownProfile", tt.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Profile(%q): %v", tt.name, err)
			continue
		}
		if r.Name != tt.want {
			t.Errorf("Profile(%q).Name = %q, want %q", tt.name, r.Name, tt.want)
		}
	}
}

func TestValidateRejectsBadRadios(t *testing.T) {
	base := CC2420()
	mutations := map[string]func(*Radio){
		"zero bitrate":        func(r *Radio) { r.BitRate = 0 },
		"negative bitrate":    func(r *Radio) { r.BitRate = -1 },
		"zero tx power":       func(r *Radio) { r.PowerTx = 0 },
		"zero rx power":       func(r *Radio) { r.PowerRx = 0 },
		"zero listen power":   func(r *Radio) { r.PowerListen = 0 },
		"negative sleep":      func(r *Radio) { r.PowerSleep = -1e-6 },
		"sleep above listen":  func(r *Radio) { r.PowerSleep = r.PowerListen * 2 },
		"negative startup":    func(r *Radio) { r.Startup = -1e-3 },
		"negative turnaround": func(r *Radio) { r.Turnaround = -1e-3 },
		"zero cca":            func(r *Radio) { r.CCA = 0 },
		"negative overhead":   func(r *Radio) { r.PHYOverhead = -1 },
	}
	for name, mutate := range mutations {
		r := base
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid radio", name)
		}
	}
}

func TestByteTime(t *testing.T) {
	r := CC2420()
	want := 32e-6 // 8 bits / 250 kbit/s
	if got := r.ByteTime(); math.Abs(got-want) > 1e-12 {
		t.Errorf("ByteTime = %v, want %v", got, want)
	}
}

func TestFrameAirtime(t *testing.T) {
	r := CC2420()
	tests := []struct {
		bytes int
		want  float64
	}{
		{bytes: 0, want: 6 * 32e-6},
		{bytes: 11, want: 17 * 32e-6},
		{bytes: 43, want: 49 * 32e-6},
		{bytes: -5, want: 6 * 32e-6}, // clamped to PHY overhead only
	}
	for _, tt := range tests {
		if got := r.FrameAirtime(tt.bytes); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("FrameAirtime(%d) = %v, want %v", tt.bytes, got, tt.want)
		}
	}
}

func TestFrameAirtimeLinear(t *testing.T) {
	r := CC2420()
	f := func(a, b uint8) bool {
		// airtime(a) + airtime(b) == airtime(a+b) + airtime(0)
		lhs := r.FrameAirtime(int(a)) + r.FrameAirtime(int(b))
		rhs := r.FrameAirtime(int(a)+int(b)) + r.FrameAirtime(0)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEnergyAccounting: a frame costs its airtime at the state's power,
// so on the CC2420 receiving costs more than sending at 0 dBm, and an
// empty frame still costs its PHY overhead.
func TestEnergyAccounting(t *testing.T) {
	r := CC2420()
	if tx, rx := r.Power(Tx), r.Power(Rx); tx >= rx {
		t.Errorf("Power(Tx)=%v should be below Power(Rx)=%v for cc2420", tx, rx)
	}
	if got := r.FrameAirtime(0); got <= 0 {
		t.Errorf("FrameAirtime(0) = %v, want positive (PHY overhead is still sent)", got)
	}
}

func TestPowerByState(t *testing.T) {
	r := CC2420()
	tests := []struct {
		state State
		want  float64
	}{
		{Sleep, r.PowerSleep},
		{Listen, r.PowerListen},
		{Rx, r.PowerRx},
		{Tx, r.PowerTx},
		{State(99), 0},
	}
	for _, tt := range tests {
		if got := r.Power(tt.state); got != tt.want {
			t.Errorf("Power(%v) = %v, want %v", tt.state, got, tt.want)
		}
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		state State
		want  string
	}{
		{Sleep, "sleep"},
		{Listen, "listen"},
		{Rx, "rx"},
		{Tx, "tx"},
		{State(42), "state(42)"},
	}
	for _, tt := range tests {
		if got := tt.state.String(); got != tt.want {
			t.Errorf("State(%d).String() = %q, want %q", int(tt.state), got, tt.want)
		}
	}
}

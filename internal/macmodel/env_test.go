package macmodel

import (
	"testing"

	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
)

func TestDefaultEnvValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default().Validate() = %v", err)
	}
}

func TestEnvValidateRejectsBadFields(t *testing.T) {
	mutations := map[string]func(*Env){
		"bad radio":     func(e *Env) { e.Radio = radio.Radio{} },
		"bad rings":     func(e *Env) { e.Rings = topology.RingModel{} },
		"zero rate":     func(e *Env) { e.SampleRate = 0 },
		"negative rate": func(e *Env) { e.SampleRate = -1 },
		"zero window":   func(e *Env) { e.Window = 0 },
		"zero payload":  func(e *Env) { e.Payload = 0 },
	}
	for name, mutate := range mutations {
		env := Default()
		mutate(&env)
		if err := env.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid env", name)
		}
	}
}

func TestEnvAirtimes(t *testing.T) {
	env := Default()
	data := env.DataAirtime()
	ack := env.AckAirtime()
	strobe := env.StrobeAirtime()
	ctrl := env.CtrlAirtime()
	sync := env.SyncAirtime()
	hdr := env.HeaderAirtime()
	for name, v := range map[string]float64{
		"data": data, "ack": ack, "strobe": strobe, "ctrl": ctrl, "sync": sync, "hdr": hdr,
	} {
		if v <= 0 {
			t.Errorf("%s airtime = %v, want positive", name, v)
		}
	}
	if !(ack < strobe && strobe < ctrl && ctrl < data) {
		t.Errorf("airtimes out of order: ack=%v strobe=%v ctrl=%v data=%v", ack, strobe, ctrl, data)
	}
	// 32-byte payload + 11 bytes MAC + 6 bytes PHY at 250 kbit/s.
	if want := 49 * 32e-6; data != want {
		t.Errorf("data airtime = %v, want %v", data, want)
	}
}

func TestEnvFlows(t *testing.T) {
	env := Default()
	f := env.Flows()
	if f.Rings != env.Rings {
		t.Errorf("Flows rings = %+v, want %+v", f.Rings, env.Rings)
	}
	if f.Rate != env.SampleRate {
		t.Errorf("Flows rate = %v, want %v", f.Rate, env.SampleRate)
	}
}

package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/edmac-project/edmac/internal/traffic"
)

// TestBuiltinsMaterialize asserts every registry entry is valid,
// materializes a connected network, and produces conserving flows —
// the gate that keeps the registry runnable.
func TestBuiltinsMaterialize(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Builtins() {
		t.Run(spec.Name, func(t *testing.T) {
			if seen[spec.Name] {
				t.Fatalf("duplicate builtin name %q", spec.Name)
			}
			seen[spec.Name] = true
			if spec.Description == "" {
				t.Error("builtin without description")
			}
			m, err := spec.Materialize()
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if m.Network.N() < 10 {
				t.Errorf("only %d nodes; builtins should be non-trivial", m.Network.N())
			}
			if m.MeanRate() <= 0 {
				t.Error("mean rate not positive")
			}
			ring := m.EquivalentRing()
			if err := ring.Validate(); err != nil {
				t.Errorf("equivalent ring invalid: %v", err)
			}
			if ring.Depth != m.Network.Depth() {
				t.Errorf("equivalent depth %d != network depth %d", ring.Depth, m.Network.Depth())
			}
			total := 0.0
			for i := 1; i < m.Network.N(); i++ {
				total += m.Traffic.MeanRates(m.Network)[i]
			}
			if want := total / float64(m.Network.N()-1); m.MeanRate() != want {
				t.Errorf("mean rate %v != generated %v over %d non-sink nodes", m.MeanRate(), want, m.Network.N()-1)
			}
		})
	}
	if len(seen) < 8 {
		t.Fatalf("only %d builtins; the registry promises at least 8", len(seen))
	}
}

// TestBuiltinsCoverKinds asserts the registry exercises every topology
// generator and every traffic model at least once.
func TestBuiltinsCoverKinds(t *testing.T) {
	topo := map[string]bool{}
	traf := map[string]bool{}
	for _, s := range Builtins() {
		topo[s.Topology.Kind] = true
		traf[s.TrafficKind()] = true
	}
	for _, kind := range []string{"ring", "disk", "grid", "line", "cluster"} {
		if !topo[kind] {
			t.Errorf("no builtin uses topology kind %q", kind)
		}
	}
	for _, kind := range []string{"periodic", "bursty", "event", "heterogeneous", "phased"} {
		if !traf[kind] {
			t.Errorf("no builtin uses traffic kind %q", kind)
		}
	}
}

// TestParseRoundTrip asserts JSON encode/parse is lossless and that
// materialization from a round-tripped spec reproduces the network.
func TestParseRoundTrip(t *testing.T) {
	for _, spec := range Builtins() {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: JSON: %v", spec.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: Parse: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("%s: round trip changed the spec:\n  %+v\n  %+v", spec.Name, spec, back)
		}
		a, err := spec.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if a.Network.N() != b.Network.N() || a.Network.Depth() != b.Network.Depth() {
			t.Errorf("%s: round-tripped spec materialized a different network", spec.Name)
		}
	}
}

// TestParseRejects asserts the strict-parsing and validation failure
// modes fail with telling errors.
func TestParseRejects(t *testing.T) {
	tests := []struct {
		name string
		json string
		want string
	}{
		{"bad json", `{`, "parse"},
		{"unknown field", `{"version":1,"name":"x","typo":1}`, "typo"},
		{"wrong version", `{"version":99,"name":"x"}`, "version"},
		{"missing name", `{"version":1,"topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"radio":"cc2420","payload":32,"window":60}`, "name"},
		{"bad topology kind", `{"version":1,"name":"x","topology":{"kind":"torus"},"traffic":{"kind":"periodic","rate":0.1},"radio":"cc2420","payload":32,"window":60}`, "topology kind"},
		{"bad traffic kind", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"chatty"},"radio":"cc2420","payload":32,"window":60}`, "traffic kind"},
		{"bad radio", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"radio":"cc9999","payload":32,"window":60}`, "cc9999"},
		{"bad payload", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"radio":"cc2420","payload":0,"window":60}`, "payload"},
		{"bad window", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"radio":"cc2420","payload":32,"window":0}`, "window"},
		{"bad generator params", `{"version":1,"name":"x","topology":{"kind":"disk","nodes":0,"radius":2},"traffic":{"kind":"periodic","rate":0.1},"radio":"cc2420","payload":32,"window":60}`, "disk"},
		{"bad traffic params", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"bursty","peak_rate":1},"radio":"cc2420","payload":32,"window":60}`, "bursty"},
		{"phases in v1", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"periodic","rate":0.1},"duration":50},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "version 2"},
		{"adaptation in v1", `{"version":1,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"adaptation":{"mode":"per-phase"},"radio":"cc2420","payload":32,"window":60}`, "version 2"},
		{"traffic and phases", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"phases":[{"traffic":{"kind":"periodic","rate":0.1},"duration":50},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "mutually exclusive"},
		{"single phase", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"periodic","rate":0.1},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "at least 2"},
		{"adaptation without phases", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},"adaptation":{"mode":"per-phase"},"radio":"cc2420","payload":32,"window":60}`, "phased workload"},
		{"bad adaptation mode", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"periodic","rate":0.1},"duration":50},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"adaptation":{"mode":"psychic"},"radio":"cc2420","payload":32,"window":60}`, "adaptation mode"},
		{"unknown phase field", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"periodic","rate":0.1},"duration":50,"typo":1},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "typo"},
		{"bad phase duration", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"periodic","rate":0.1},"duration":0},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "duration"},
		{"bad phase traffic", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"chatty"},"duration":50},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "traffic kind"},
		{"nested phased", `{"version":2,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"phases":[{"traffic":{"kind":"phased"},"duration":50},{"traffic":{"kind":"periodic","rate":0.2},"duration":50}],"radio":"cc2420","payload":32,"window":60}`, "traffic kind"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse([]byte(tt.json))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestPhasedSpec asserts the version-2 surface: a phased spec parses,
// reports TrafficKind "phased", materializes a traffic.Phased aligned
// with its declared durations, and a version-1 spec of the same shape
// still parses unchanged.
func TestPhasedSpec(t *testing.T) {
	spec, ok := ByName("meadow-stormcycle")
	if !ok {
		t.Fatal("meadow-stormcycle missing from the registry")
	}
	if spec.TrafficKind() != "phased" {
		t.Fatalf("TrafficKind %q, want phased", spec.TrafficKind())
	}
	if spec.Adaptation == nil || spec.Adaptation.Mode != AdaptPerPhase {
		t.Fatalf("adaptation %+v, want per-phase", spec.Adaptation)
	}
	m, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	phased, ok := m.Traffic.(traffic.Phased)
	if !ok {
		t.Fatalf("materialized %T, want traffic.Phased", m.Traffic)
	}
	if len(phased.Phases) != len(spec.Phases) {
		t.Fatalf("%d materialized phases for %d declared", len(phased.Phases), len(spec.Phases))
	}
	for i, ph := range phased.Phases {
		if ph.Duration != spec.Phases[i].Duration {
			t.Errorf("phase %d duration %v, want %v", i, ph.Duration, spec.Phases[i].Duration)
		}
		if ph.Model.Kind() != spec.Phases[i].Traffic.Kind {
			t.Errorf("phase %d kind %q, want %q", i, ph.Model.Kind(), spec.Phases[i].Traffic.Kind)
		}
	}

	v1, ok := ByName("ring-baseline")
	if !ok {
		t.Fatal("ring-baseline missing")
	}
	if v1.SpecVersion != 1 {
		t.Fatalf("stationary builtin declares version %d, want 1", v1.SpecVersion)
	}
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "phases") || strings.Contains(string(data), "adaptation") {
		t.Error("version-1 JSON gained version-2 fields")
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("version-1 spec no longer parses: %v", err)
	}
}

// TestFaultSpec asserts the version-4 surface: the survivability twins
// declare failure dynamics with on-death adaptation, their JSON
// round-trips, pre-v4 JSON stays free of the new blocks, and the
// version gate plus the fault-block validation rules reject bad specs.
func TestFaultSpec(t *testing.T) {
	churn, ok := ByName("ring-attrition")
	if !ok {
		t.Fatal("ring-churn missing from the registry")
	}
	if churn.Failures == nil || churn.Failures.Model != FailChurn || !churn.Faulty() {
		t.Fatalf("failures %+v Faulty %v, want churn/true", churn.Failures, churn.Faulty())
	}
	if churn.Adaptation == nil || churn.Adaptation.Mode != AdaptOnDeath {
		t.Fatalf("adaptation %+v, want on-death", churn.Adaptation)
	}
	brown, ok := ByName("meadow-brownout")
	if !ok {
		t.Fatal("meadow-brownout missing from the registry")
	}
	if brown.Battery == nil || brown.Battery.CapacityJ <= 0 {
		t.Fatalf("battery %+v, want a positive capacity", brown.Battery)
	}

	// Pre-v4 builtins must not leak the new blocks into their JSON.
	for _, name := range []string{"ring-baseline", "meadow-stormcycle", "ring-lossy"} {
		spec, _ := ByName(name)
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "failures") || strings.Contains(string(data), "battery") {
			t.Errorf("%s: pre-v4 JSON gained version-4 fields", name)
		}
	}

	head := `{"version":%s,"name":"x","topology":{"kind":"line","nodes":3,"spacing":0.5},"traffic":{"kind":"periodic","rate":0.1},`
	tail := `"radio":"cc2420","payload":32,"window":60}`
	cases := []struct {
		name string
		json string
		want string
	}{
		{"failures in v3", fmt.Sprintf(head, "3") + `"failures":{"model":"churn","mtbf":500},` + tail, "version 4"},
		{"battery in v3", fmt.Sprintf(head, "3") + `"battery":{"capacity_j":1},` + tail, "version 4"},
		{"unknown failure model", fmt.Sprintf(head, "4") + `"failures":{"model":"meteor"},` + tail, "failure model"},
		{"churn without mtbf", fmt.Sprintf(head, "4") + `"failures":{"model":"churn"},` + tail, "MTBF"},
		{"churn with events", fmt.Sprintf(head, "4") + `"failures":{"model":"churn","mtbf":500,"events":[{"node":1,"at":10}]},` + tail, "no event list"},
		{"schedule without events", fmt.Sprintf(head, "4") + `"failures":{"model":"schedule"},` + tail, "at least one event"},
		{"schedule crashes sink", fmt.Sprintf(head, "4") + `"failures":{"model":"schedule","events":[{"node":0,"at":10}]},` + tail, "sink"},
		{"negative crash time", fmt.Sprintf(head, "4") + `"failures":{"model":"schedule","events":[{"node":1,"at":-1}]},` + tail, "crash time"},
		{"zero battery", fmt.Sprintf(head, "4") + `"battery":{"capacity_j":0},` + tail, "capacity"},
		{"unknown failure field", fmt.Sprintf(head, "4") + `"failures":{"model":"churn","mtbf":500,"typo":1},` + tail, "typo"},
		{"on-death without faults", fmt.Sprintf(head, "4") + `"adaptation":{"mode":"on-death"},` + tail, "failure dynamics"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse([]byte(tt.json))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}

	// A valid v4 spec with a crash schedule parses and materializes.
	good := fmt.Sprintf(head, "4") +
		`"failures":{"model":"schedule","events":[{"node":1,"at":10,"duration":5}]},"battery":{"capacity_j":2},"adaptation":{"mode":"on-death"},` + tail
	spec, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Failures == nil || spec.Failures.Model != FailSchedule {
		t.Errorf("failures %+v, want schedule", spec.Failures)
	}
	if _, err := spec.Materialize(); err != nil {
		t.Fatal(err)
	}
}

// TestByName pins registry lookup behaviour.
func TestByName(t *testing.T) {
	if _, ok := ByName("ring-baseline"); !ok {
		t.Error("ring-baseline missing")
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("phantom scenario found")
	}
}

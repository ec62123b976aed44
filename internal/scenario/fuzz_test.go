package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParse throws arbitrary bytes at the strict v1-v4 spec parser.
// Two properties must hold on every input: Parse never panics (garbage
// is an error value, not a crash — specs arrive over HTTP), and every
// accepted spec round-trips through its canonical encoding — the
// re-encoded form parses again and re-encodes to the same bytes, so a
// spec written back to disk means what the original meant.
func FuzzParse(f *testing.F) {
	// Seed with every builtin (all schema versions and every optional
	// block in realistic combination)...
	for _, sp := range Builtins() {
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// ...and the interesting edges: truncation, version gating, the v4
	// failure grammar (both models), and near-miss typos.
	for _, seed := range []string{
		`{`,
		`null`,
		`{"version":99}`,
		`{"version":1,"name":"x"}`,
		`{"version":3,"name":"x","topology":{"kind":"ring","depth":2,"density":2},` +
			`"traffic":{"kind":"periodic","rate":0.01},"failures":{"model":"churn","mtbf":100,"mttr":10},` +
			`"radio":"cc2420","payload":32,"window":60}`,
		`{"version":4,"name":"x","topology":{"kind":"ring","depth":2,"density":2},` +
			`"traffic":{"kind":"periodic","rate":0.01},` +
			`"failures":{"model":"schedule","events":[{"node":1,"at":10,"duration":5}]},` +
			`"battery":{"capacity_j":0.5},"radio":"cc2420","payload":32,"window":60}`,
		`{"version":4,"name":"x","topology":{"kind":"ring","depth":2,"density":2},` +
			`"traffic":{"kind":"periodic","rate":0.01},"failures":{"model":"churn","mtbf":-1},` +
			`"radio":"cc2420","payload":32,"window":60}`,
		`{"version":4,"name":"x","topology":{"kind":"ring","depth":2,"density":2},` +
			`"traffic":{"kind":"periodic","rate":0.01},"batery":{"capacity_j":1},` +
			`"radio":"cc2420","payload":32,"window":60}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected without panicking: the contract for garbage
		}
		canon, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical encoding rejected by its own parser: %v\n%s", err, canon)
		}
		canon2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\nfirst:  %s\nsecond: %s", canon, canon2)
		}
	})
}

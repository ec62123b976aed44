package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: noParent, Start: 0, End: 100},
		{Name: "a.x", Parent: 0, Start: 10, End: 40},  // overlaps the next child
		{Name: "b.x", Parent: 0, Start: 30, End: 60},  // parallel sibling
		{Name: "c.x", Parent: 0, Start: 90, End: 120}, // reaches past its parent
		{Name: "d.x", Parent: 1, Start: 15, End: 20},  // nested in a.x
		{Name: "e.x", Parent: 1, Start: 18, End: 25},  // overlaps d.x
	}
	// op: children cover [10,60] and [90,100] → 60; a.x: [15,25] → 10.
	want := []int64{40, 20, 30, 30, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	self, _ := layerTimes(spans)
	if self["(remainder)"] != 40 || self["a"] != 20 {
		t.Errorf("layer self times %v", self)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin(rootSpan, noParent, 1)
	tr.do("sim.run", root, 1, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 1 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].dur() < int64(time.Millisecond) || spans[0].dur() < spans[1].dur() {
		t.Fatalf("durations %d, %d", spans[0].dur(), spans[1].dur())
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("spans file: %v", err)
	}
}

package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestGoldenCheckFailsOnOneFlippedByte(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(golden, golden); err != nil {
		t.Fatalf("golden against itself: %v", err)
	}
	for _, at := range []int{0, len(golden) / 2, len(golden) - 1} {
		flipped := append([]byte(nil), golden...)
		flipped[at] ^= 1
		if err := checkReport(flipped, golden); err == nil {
			t.Errorf("byte %d flipped: check passed", at)
		}
	}
	if err := checkReport(golden[:len(golden)-1], golden); err == nil {
		t.Error("truncated report: check passed")
	}
}

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 30 * time.Millisecond
	dues := []float64{0, 0.001, 0.002, 0.003, 0.050}
	run := openLoop(1, dues, func(k int) func() bool {
		if k == 0 {
			time.Sleep(stall)
		}
		return func() bool { return true }
	})
	ops := run.ops
	// Requests 1-3 were due while request 0 stalled the only worker: each
	// is charged from its own due time, not from when it was sent.
	for k := 1; k <= 3; k++ {
		want := stall.Seconds() - dues[k] - 0.002
		if ops[k].lat < want || ops[k].late < want {
			t.Errorf("request %d: latency %.4f s, late %.4f s, want at least %.4f s", k, ops[k].lat, ops[k].late, want)
		}
	}
	// Request 4 was due after the stall and waits for nobody.
	if ops[4].late > 0.010 {
		t.Errorf("request 4: late %.4f s after the stall cleared", ops[4].late)
	}
}

func TestClosedLoopIndexesEveryOperationOnce(t *testing.T) {
	run := closedLoop(2, 20*time.Millisecond, func(int) func() bool {
		time.Sleep(time.Millisecond)
		return func() bool { return true }
	})
	seen := map[int]bool{}
	for _, o := range run.ops {
		if seen[o.idx] {
			t.Fatalf("index %d issued twice", o.idx)
		}
		seen[o.idx] = true
	}
	if len(run.ops) != run.attempted || run.failed != 0 {
		t.Fatalf("%d results of %d attempted, %d failed", len(run.ops), run.attempted, run.failed)
	}
	for i := 0; i < run.attempted; i++ {
		if !seen[i] {
			t.Fatalf("index %d never issued", i)
		}
	}
	if run.wall < 0.020 {
		t.Fatalf("wall %.4f s shorter than the run", run.wall)
	}
}

func TestSampleBufStaysBoundedAndEven(t *testing.T) {
	b := newSampleBuf(8)
	for i := 0; i < 100; i++ {
		b.add(opResult{idx: i})
	}
	// 100 offers into 8 slots: the stride doubles to 16, keeping every
	// sixteenth result from the first on.
	want := []int{0, 16, 32, 48, 64, 80, 96}
	if len(b.out) != len(want) || cap(b.out) != 8 {
		t.Fatalf("kept %d results (cap %d), want %d", len(b.out), cap(b.out), len(want))
	}
	for i, o := range b.out {
		if o.idx != want[i] {
			t.Fatalf("kept %v, want indices %v", b.out, want)
		}
	}
}

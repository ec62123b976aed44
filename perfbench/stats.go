package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"unsafe"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). With
// fewer than 1/(1-q) samples the upper quantiles are the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// opsPerSecond is completed operations per second. A closed loop keeps
// its callers busy, so that is done over wall time. An open loop's wall
// time is set by its schedule, whatever the program does, so its figure
// is the rate its workers sustain while busy: done per busy
// worker-second, times the workers.
func (r loopRun) opsPerSecond() float64 {
	done := float64(r.attempted - r.failed)
	if r.openWorkers == 0 {
		return ratio(done, r.wall)
	}
	busy := 0.0
	for _, o := range r.ops {
		busy += o.svc
	}
	return ratio(done*float64(r.openWorkers), busy)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// retainedHeap forces collections and returns the live heap after them, in
// bytes. Called when an operation loop has ended, with nothing in flight,
// it measures what the program keeps between operations: its caches and
// its job store only fill during a run, so this is the largest heap the
// program retains in the measured phase. Readings taken while operations
// ran swung with whichever happened to be in flight, by 15% between runs
// of the same code, and their forced collections slowed the operations.
// The second collection frees what sync.Pools in the standard library
// (encoding/json's buffers among them) still held after the first; one
// collection left them counted in some runs and not in others.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// keepRetainedHeap records retainedHeap less the loop's own results,
// whose number grows with the throughput a closed loop reaches.
func (ph *phase) keepRetainedHeap() {
	ph.liveHeap = retainedHeap() - float64(cap(ph.ops))*float64(unsafe.Sizeof(opResult{}))
}

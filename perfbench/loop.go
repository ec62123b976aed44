package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one finished operation of a load loop.
type opResult struct {
	idx  int
	lat  float64 // seconds: from issue (closed loop) or from due time (open loop)
	svc  float64 // seconds from issue to completion
	late float64 // open loop: seconds between due time and issue
	ok   bool
}

// loopRun is what a load loop observed.
type loopRun struct {
	ops       []opResult // every operation, or a uniform sample of them (closed loop)
	attempted int
	failed    int
	wall      float64 // seconds from start to the last completion
	// openWorkers is an open loop's number of workers; 0 for a closed loop.
	openWorkers int
}

// closedLoop runs `clients` goroutines, each sending its next operation
// only after the previous one completed, until d has passed. Operations
// take consecutive indices from one counter. op returns the check of its
// output, which runs after the operation's time is taken. Each client
// keeps a bounded uniform sample of its results, so the loop's memory —
// which shares the live heap the benchmark reports — does not grow with
// the throughput it measures.
func closedLoop(clients int, d time.Duration, op func(i int) (check func() bool)) loopRun {
	var next atomic.Int64
	per := make([]sampleBuf, clients)
	failed := make([]int, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		per[c] = newSampleBuf(samplesPerClient)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t := time.Now()
				check := op(i)
				lat := time.Since(t).Seconds()
				ok := check()
				if !ok {
					failed[c]++
				}
				per[c].add(opResult{idx: i, lat: lat, svc: lat, ok: ok})
			}
		}()
	}
	wg.Wait()
	run := loopRun{attempted: int(next.Load()), wall: time.Since(start).Seconds()}
	for c := range per {
		run.ops = append(run.ops, per[c].out...)
		run.failed += failed[c]
	}
	return run
}

// samplesPerClient bounds the results a closed-loop client keeps.
const samplesPerClient = 1 << 14

// sampleBuf keeps every stride-th result it is offered, in a buffer
// allocated once: when the buffer fills, it drops every other kept result
// and doubles the stride, so what it holds stays spread evenly over the
// whole run.
type sampleBuf struct {
	out    []opResult
	stride int
	seen   int
}

func newSampleBuf(n int) sampleBuf {
	return sampleBuf{out: make([]opResult, 0, n), stride: 1}
}

func (b *sampleBuf) add(r opResult) {
	defer func() { b.seen++ }()
	if b.seen%b.stride != 0 {
		return
	}
	if len(b.out) == cap(b.out) {
		kept := b.out[:0]
		for i := 0; i < len(b.out); i += 2 {
			kept = append(kept, b.out[i])
		}
		b.out = kept
		b.stride *= 2
		if b.seen%b.stride != 0 {
			return
		}
	}
	b.out = append(b.out, r)
}

// spinMargin is how long before a due time a waiting worker stops
// sleeping and starts polling the clock: the host's timers fire up to a
// millisecond late, which would otherwise land in every latency.
const spinMargin = 1500 * time.Microsecond

// openLoop sends operation k at start+dues[k] (seconds, ascending),
// whether or not earlier ones have finished, on at most `workers`
// goroutines, so at most that many operations are in flight. Latency
// runs from the due time, so an operation that had to wait for a free
// worker is charged the wait. Like closedLoop's, op returns the check of
// its output. The results come in index order; their number is fixed by
// the schedule, not by how fast the program answers.
func openLoop(workers int, dues []float64, op func(k int) (check func() bool)) loopRun {
	out := make([]opResult, len(dues))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(dues) {
					return
				}
				due := start.Add(time.Duration(dues[k] * float64(time.Second)))
				waitUntil(due)
				issued := time.Now()
				check := op(k)
				done := time.Now()
				out[k] = opResult{idx: k, lat: done.Sub(due).Seconds(), svc: done.Sub(issued).Seconds(),
					late: issued.Sub(due).Seconds(), ok: check()}
			}
		}()
	}
	wg.Wait()
	run := loopRun{ops: out, attempted: len(out), wall: time.Since(start).Seconds(), openWorkers: workers}
	for _, o := range out {
		if !o.ok {
			run.failed++
		}
	}
	return run
}

// waitUntil sleeps until shortly before t, then yields until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

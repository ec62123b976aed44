// Package sim is a packet-level discrete-event simulator for duty-cycled
// wireless sensor networks. It provides the experimental substrate the
// original protocol models were validated against (testbeds and ns-2
// class simulators we do not have — see DESIGN.md §5): a virtual-time
// event engine, a unit-disk radio medium with collision handling, a
// per-node transceiver state machine with energy metering, and faithful
// packet-level implementations of X-MAC, B-MAC, DMAC and LMAC.
//
// The simulator measures what the analytic models of internal/macmodel
// predict; the cross-validation tests and the `edsim validate` command
// compare the two.
//
// Three entry points run a simulation: RunContext with one parameter
// vector throughout, RunPhasedContext with a vector per traffic phase,
// and RunFaultyContext with node failures and re-bargaining over the
// survivors. All three execute the same epoch loop (see runner).
//
// # Concurrency and determinism contract
//
// One Engine (and everything hanging off it: Medium, Transceivers, MAC
// nodes, Metrics) is single-threaded by design and must only be driven
// from one goroutine. Determinism is a correctness requirement: a run is
// a pure function of its Config, so equal seeds reproduce runs exactly,
// event for event. Independent runs share nothing mutable — every run
// builds a fresh Engine, Medium and RNG set, and topology.Network,
// radio.Radio and an attached Materialized world are immutable after
// construction — so any number of runs may execute concurrently (see
// RunBatch), and a batch's results are bit-identical to executing the
// same configs sequentially.
package sim

import (
	"context"
	"math/bits"
)

// Time is virtual simulation time in seconds. It is a float64 rather
// than time.Duration because it feeds the same closed-form arithmetic as
// the analytic models (it is compared against them directly).
type Time = float64

// event is one scheduled callback, stored in the engine's flat arena.
// Callbacks come in two forms: a plain closure fn, or the pair (do, arg)
// which lets hot paths reuse one long-lived func value with a per-event
// argument instead of allocating a fresh closure per schedule.
//
// The struct is exactly 64 bytes — one cache line — so the wheel's
// bucket-chain scans touch a single line per event.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	fn   func()
	do   func(any)
	arg  any
	gen  uint32 // bumped on slot reuse; stale Timers miss
	loc  int32  // wheel bucket | overflowLoc; noSlot when free
	next int32  // chain / free-list link, noSlot at the end
	prev int32  // wheel chain back-link (unused by the free-list)
}

const (
	noSlot      = -1
	overflowLoc = -2 // loc value of events parked beyond the wheel horizon
)

// Timing-wheel geometry. The tick is 1/4096 s ≈ 244 µs — comparable to
// the simulator's shortest recurring intervals (inter-frame spacing,
// strobe gaps, CCA windows), so consecutive protocol events land in the
// same or adjacent buckets and bucket chains stay 1-3 events long. With
// wheelSize buckets the horizon is exactly one second, which covers
// every duty-cycle timer the MACs arm (poll intervals are ≤ 1 s in all
// suite scenarios); only rare far-future events (arrival schedules,
// fault points) take the overflow path. Scaling by a power of two keeps
// tick = ⌊at·tickScale⌋ exact and monotone in `at`, which is what makes
// the wheel's pop order exactly the (at, seq) order.
const (
	wheelBits  = 12
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	tickScale  = float64(wheelSize) // ticks per second; horizon = 1 s
	wheelWords = wheelSize / 64
)

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. MAC protocols cancel pending timeouts constantly (an ACK
// arriving cancels the retry timer, a frame ending cancels the poll
// extension, ...). The zero Timer is valid and inert.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Cancel removes the event from the queue so it never fires and its
// slot is immediately reusable. Cancelling the zero Timer, a nil *Timer,
// or an already-fired or already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t == nil || t.eng == nil {
		return
	}
	t.eng.cancel(t.slot, t.gen)
	t.eng = nil
}

// Engine is the discrete-event scheduler: a priority queue of callbacks
// over virtual time, in the strict total order (at, seq) — earliest
// timestamp first, FIFO among equals. Events live in a flat arena
// recycled through a free-list; ordering comes from a calendar-queue
// timing wheel with amortized O(1) insert, pop and cancel (duty-cycle
// workloads are near-periodic with a tiny pending set, the regime
// calendar queues dominate comparison-based heaps in), so scheduling and
// cancelling are allocation-free in steady state and cancellation
// removes the event immediately instead of leaving a tombstone to be
// popped. A reference 4-ary heap in the tests holds the wheel to that
// order (scheduler_diff_test.go). The engine is single-goroutine; see
// the package comment for the concurrency contract.
type Engine struct {
	now       Time
	seq       uint64
	events    []event // arena; index = slot
	free      int32   // head of the free-slot list, noSlot when empty
	processed uint64
	pending   int // live events currently queued
	peak      int // high-water mark of pending

	// Timing wheel: heads[b]/tails[b] chain the events
	// of the single tick currently mapped to bucket b, kept sorted by
	// (at, seq) so the chain head is the bucket minimum; occ is the
	// occupancy bitmap. The wheel covers ticks [base, base+wheelSize);
	// events beyond the horizon wait on the overflow list and are
	// promoted in bulk when the wheel drains past them. cur is the scan
	// cursor: no bucketed event lives below tick cur, so each pop
	// resumes the occupancy scan where the previous one stopped instead
	// of rescanning from the clock.
	heads    []int32
	tails    []int32
	occ      []uint64
	base     int64
	cur      int64
	overflow int32
	promoted uint64 // events promoted overflow → wheel (observability)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{
		free:     noSlot,
		heads:    make([]int32, wheelSize),
		tails:    make([]int32, wheelSize),
		occ:      make([]uint64, wheelWords),
		overflow: noSlot,
	}
	for i := range e.heads {
		e.heads[i] = noSlot
		e.tails[i] = noSlot
	}
	return e
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// QueueLen returns the number of events currently pending. Cancelled
// events are removed eagerly and never count.
func (e *Engine) QueueLen() int { return e.pending }

// PeakPending returns the high-water mark of the pending-event count —
// the working-set size the scheduler had to order.
func (e *Engine) PeakPending() int { return e.peak }

// OverflowPromotions returns how many events entered the queue beyond
// the wheel horizon and were later promoted into the wheel. High counts
// relative to Processed would mean the workload's periods outrun the
// horizon and the wheel is degenerating into a scan; duty-cycle
// workloads keep this near zero.
func (e *Engine) OverflowPromotions() uint64 { return e.promoted }

// At schedules fn at absolute time t (clamped to now for past times) and
// returns a cancellable handle.
func (e *Engine) At(t Time, fn func()) Timer {
	return e.schedule(t, fn, nil, nil)
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) Timer {
	return e.schedule(e.now+d, fn, nil, nil)
}

// AtCall schedules do(arg) at absolute time t. It exists for hot paths:
// do can be one long-lived func value (e.g. a cached method wrapper)
// reused across schedules, so no closure is allocated per event.
//
//edvet:hotpath
func (e *Engine) AtCall(t Time, do func(any), arg any) Timer {
	return e.schedule(t, nil, do, arg)
}

// AfterCall schedules do(arg) d seconds from now.
//
//edvet:hotpath
func (e *Engine) AfterCall(d float64, do func(any), arg any) Timer {
	return e.schedule(e.now+d, nil, do, arg)
}

// schedule allocates a slot (reusing the free-list), fills it and links
// it into the wheel.
//
//edvet:hotpath
func (e *Engine) schedule(t Time, fn func(), do func(any), arg any) Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var slot int32
	if e.free != noSlot {
		slot = e.free
		e.free = e.events[slot].next
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.do = do
	ev.arg = arg
	e.pending++
	if e.pending > e.peak {
		e.peak = e.pending
	}
	e.wheelInsert(slot, ev)
	return Timer{eng: e, slot: slot, gen: ev.gen}
}

// cancel removes the event at slot if the generation still matches (the
// event has neither fired nor been cancelled since the Timer was made).
//
//edvet:hotpath
func (e *Engine) cancel(slot int32, gen uint32) {
	if slot < 0 || int(slot) >= len(e.events) {
		return
	}
	ev := &e.events[slot]
	if ev.gen != gen || ev.loc == noSlot {
		return
	}
	e.wheelUnlink(ev)
	e.pending--
	e.release(slot)
}

// release returns a slot to the free-list, dropping callback references
// so the GC can reclaim captured state.
//
//edvet:hotpath
func (e *Engine) release(slot int32) {
	ev := &e.events[slot]
	ev.fn = nil
	ev.do = nil
	ev.arg = nil
	ev.gen++
	ev.loc = noSlot
	ev.next = e.free
	e.free = slot
}

// DropPending cancels every pending event at once, releasing all slots
// to the free-list. The clock and the processed counter keep their
// values. Phased runs use it at epoch boundaries: everything the old
// parameter regime still had in flight (poll chains, in-flight frame
// endings, protocol timeouts) is discarded before the next regime's MAC
// layer is installed.
func (e *Engine) DropPending() {
	for w, word := range e.occ {
		for word != 0 {
			b := int32(w<<6) + int32(bits.TrailingZeros64(word))
			word &= word - 1
			for s := e.heads[b]; s != noSlot; {
				next := e.events[s].next
				e.release(s)
				s = next
			}
			e.heads[b] = noSlot
			e.tails[b] = noSlot
		}
		e.occ[w] = 0
	}
	for s := e.overflow; s != noSlot; {
		next := e.events[s].next
		e.release(s)
		s = next
	}
	e.overflow = noSlot
	e.cur = e.base
	e.pending = 0
}

// Run executes events in timestamp order until the queue empties or the
// next event lies beyond `until`; the clock then advances to `until`.
func (e *Engine) Run(until Time) {
	e.RunContext(nil, until)
}

// ctxCheckInterval is how many events RunContext processes between
// context polls. Polling is a channel-select per check, so the interval
// trades abort latency (a few thousand events, microseconds of wall
// clock) against per-event overhead on the hot path.
const ctxCheckInterval = 4096

// RunContext is Run with cooperative cancellation: every
// ctxCheckInterval events it polls ctx and, when the context is done,
// stops mid-run and returns the context's error. A nil ctx — or one
// that can never be cancelled, like context.Background() — is never
// polled, so uncancellable runs execute the exact event sequence Run
// does. An abandoned engine keeps its partial state; callers discard
// it (a cancelled run reports no result).
func (e *Engine) RunContext(ctx context.Context, until Time) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if err := e.runWheel(ctx, done, until); err != nil {
		return err
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// --- calendar-queue timing wheel --------------------------------------

// wheelInsert links a freshly filled slot into the wheel: its bucket
// when the event's tick is inside the horizon, the overflow list
// otherwise.
//
//edvet:hotpath
func (e *Engine) wheelInsert(slot int32, ev *event) {
	tick := int64(ev.at * tickScale)
	if tick < e.base {
		// The window was advanced past `now` by a promotion and the run
		// then stopped at its horizon before draining it (or a prior run
		// was cancelled mid-promotion). Rewind: restart the window at
		// this event's tick and redistribute the queue against it.
		e.rebase(tick)
	}
	if tick-e.base < wheelSize {
		if tick < e.cur {
			e.cur = tick
		}
		e.bucketInsert(slot, ev, int32(tick&wheelMask))
	} else {
		h := e.overflow
		ev.loc, ev.prev, ev.next = overflowLoc, noSlot, h
		if h != noSlot {
			e.events[h].prev = slot
		}
		e.overflow = slot
	}
}

// bucketInsert links slot into bucket b's chain, keeping the chain
// sorted by (at, seq) so the head is always the bucket minimum. New
// events almost always carry the largest (at, seq) of their tick, so
// the common case is an O(1) append at the tail; the fallback walks
// from the head of a chain that is a handful of events long.
//
//edvet:hotpath
func (e *Engine) bucketInsert(slot int32, ev *event, b int32) {
	ev.loc = b
	t := e.tails[b]
	if t == noSlot {
		ev.prev, ev.next = noSlot, noSlot
		e.heads[b], e.tails[b] = slot, slot
		e.occ[b>>6] |= 1 << uint(b&63)
		return
	}
	if tl := &e.events[t]; tl.at < ev.at || (tl.at == ev.at && tl.seq < ev.seq) {
		ev.prev, ev.next = t, noSlot
		tl.next = slot
		e.tails[b] = slot
		return
	}
	// Walk from the head to the first event ordered after ev.
	s := e.heads[b]
	for {
		sv := &e.events[s]
		if ev.at < sv.at || (ev.at == sv.at && ev.seq < sv.seq) {
			ev.prev, ev.next = sv.prev, s
			if sv.prev != noSlot {
				e.events[sv.prev].next = slot
			} else {
				e.heads[b] = slot
			}
			sv.prev = slot
			return
		}
		s = sv.next
	}
}

// wheelUnlink removes an event from its chain (bucket or overflow) in
// O(1), clearing the bucket's occupancy bit when it empties.
//
//edvet:hotpath
func (e *Engine) wheelUnlink(ev *event) {
	nx, pv := ev.next, ev.prev
	if pv != noSlot {
		e.events[pv].next = nx
	} else if ev.loc == overflowLoc {
		e.overflow = nx
	} else {
		e.heads[ev.loc] = nx
		if nx == noSlot {
			e.occ[ev.loc>>6] &^= 1 << uint(ev.loc&63)
		}
	}
	if nx != noSlot {
		e.events[nx].prev = pv
	} else if ev.loc != overflowLoc {
		e.tails[ev.loc] = pv
	}
}

// rebase restarts the window at the given (lower) tick and
// redistributes every queued event against it: ticks inside the new
// horizon go (back) into their buckets, the rest to the overflow list.
// Only the rare insert-below-base path (see wheelInsert) needs it.
//
// Events from the old window whose ticks land inside the new horizon
// MUST be re-bucketed here, not parked on overflow: overflow is only
// consulted once the wheel drains, so an in-horizon event left there
// would be starved while later in-window events fire — the clock would
// pass its deadline and the (at, seq) order would break.
func (e *Engine) rebase(tick int64) {
	head := e.overflow
	e.overflow = noSlot
	for w, word := range e.occ {
		for word != 0 {
			b := int32(w<<6) + int32(bits.TrailingZeros64(word))
			word &= word - 1
			for s := e.heads[b]; s != noSlot; {
				next := e.events[s].next
				e.events[s].next = head
				head = s
				s = next
			}
			e.heads[b] = noSlot
			e.tails[b] = noSlot
		}
		e.occ[w] = 0
	}
	e.base = tick
	e.cur = tick
	e.redistribute(head)
}

// redistribute relinks a next-chained list of unlinked events against
// the current base: in-horizon events into their buckets (sorted), the
// rest onto the overflow list. Returns the number of events bucketed.
//
//edvet:hotpath
func (e *Engine) redistribute(head int32) uint64 {
	end := e.base + wheelSize
	var placed uint64
	for s := head; s != noSlot; {
		ev := &e.events[s]
		next := ev.next
		if tick := int64(ev.at * tickScale); tick < end {
			e.bucketInsert(s, ev, int32(tick&wheelMask))
			placed++
		} else {
			ev.loc, ev.prev, ev.next = overflowLoc, noSlot, e.overflow
			if e.overflow != noSlot {
				e.events[e.overflow].prev = s
			}
			e.overflow = s
		}
		s = next
	}
	return placed
}

// scanOcc returns the first tick in [start, end) whose bucket holds
// events, or -1. end-start never exceeds wheelSize, so every bucket maps
// to at most one tick of the range; the occupancy bitmap lets idle
// stretches (a sleeping network between polls) skip 64 buckets per word
// load.
//
//edvet:hotpath
func (e *Engine) scanOcc(start, end int64) int64 {
	for i := start; i < end; {
		b := i & wheelMask
		word := e.occ[b>>6] >> uint(b&63)
		if word != 0 {
			t := i + int64(bits.TrailingZeros64(word))
			if t < end {
				return t
			}
			return -1
		}
		i += 64 - (b & 63)
	}
	return -1
}

// wheelMin locates the earliest pending event without removing it, or
// noSlot when nothing is pending. When the wheel proper has drained it
// advances the window to the overflow's earliest tick and promotes
// everything inside the new horizon. tick = ⌊at·tickScale⌋ is monotone
// in `at` and all of a bucket's events share one tick, so the head of
// the first occupied bucket (chains are sorted) is the global minimum —
// the exact (at, seq) order. The cursor makes the
// common case O(1): the scan resumes at the tick the last pop stopped
// on, which is still occupied while its bucket drains.
//
//edvet:hotpath
func (e *Engine) wheelMin() int32 {
	for {
		start := e.cur
		if start < e.base {
			start = e.base
		}
		if t := e.scanOcc(start, e.base+wheelSize); t >= 0 {
			e.cur = t
			return e.heads[t&wheelMask]
		}
		e.cur = e.base + wheelSize
		if e.overflow == noSlot {
			return noSlot
		}
		e.promote()
	}
}

// promote advances the window to the overflow list's earliest tick and
// moves every overflow event inside the new horizon into its bucket.
// Called only when the wheel is empty, so re-bucketing cannot collide
// with live in-window events.
//
//edvet:hotpath
func (e *Engine) promote() {
	minTick := int64(1)<<62 - 1
	for s := e.overflow; s != noSlot; s = e.events[s].next {
		if t := int64(e.events[s].at * tickScale); t < minTick {
			minTick = t
		}
	}
	e.base = minTick
	e.cur = minTick
	head := e.overflow
	e.overflow = noSlot
	e.promoted += e.redistribute(head)
}

// runWheel is the wheel-scheduled event loop behind RunContext.
//
//edvet:hotpath
func (e *Engine) runWheel(ctx context.Context, done <-chan struct{}, until Time) error {
	countdown := ctxCheckInterval
	for e.pending > 0 {
		slot := e.wheelMin()
		if slot == noSlot {
			break
		}
		ev := &e.events[slot]
		if ev.at > until {
			break
		}
		if done != nil {
			countdown--
			if countdown == 0 {
				countdown = ctxCheckInterval
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
		e.now = ev.at
		fn, do, arg := ev.fn, ev.do, ev.arg
		e.wheelUnlink(ev)
		e.pending--
		e.release(slot)
		e.processed++
		if do != nil {
			do(arg)
		} else {
			fn()
		}
	}
	return nil
}

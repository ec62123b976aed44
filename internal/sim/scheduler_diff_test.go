package sim

import (
	"fmt"
	"testing"
)

// splitmix64 is a tiny deterministic PRNG for driving the differential
// scheduler tests without math/rand (whose stream we must not disturb
// elsewhere in the package).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64n returns a float in [0, n).
func (s *splitmix64) float64n(n float64) float64 {
	return float64(s.next()>>11) / (1 << 53) * n
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// popRecord is one fired event in a differential run's log.
type popRecord struct {
	at Time
	id int
}

// diffQueue is the scheduler surface the differential harness drives:
// the production Engine (engineQueue) and the reference heap (refHeap)
// both provide it. Scheduling returns the event's cancel func.
type diffQueue interface {
	Now() Time
	at(t Time, fn func()) func()
	atCall(t Time, do func(any), arg any) func()
	afterCall(d float64, do func(any), arg any) func()
	Run(until Time)
	DropPending()
	QueueLen() int
}

// engineQueue adapts the Engine to diffQueue through its public
// scheduling API.
type engineQueue struct{ *Engine }

func (q engineQueue) at(t Time, fn func()) func() {
	tm := q.At(t, fn)
	return tm.Cancel
}

func (q engineQueue) atCall(t Time, do func(any), arg any) func() {
	tm := q.AtCall(t, do, arg)
	return tm.Cancel
}

func (q engineQueue) afterCall(d float64, do func(any), arg any) func() {
	tm := q.AfterCall(d, do, arg)
	return tm.Cancel
}

func (e *refHeap) at(t Time, fn func()) func() {
	slot, gen := e.schedule(t, fn, nil, nil)
	return func() { e.cancel(slot, gen) }
}

func (e *refHeap) atCall(t Time, do func(any), arg any) func() {
	slot, gen := e.schedule(t, nil, do, arg)
	return func() { e.cancel(slot, gen) }
}

func (e *refHeap) afterCall(d float64, do func(any), arg any) func() {
	return e.atCall(e.now+d, do, arg)
}

// diffHarness drives one queue through a scripted workload and logs the
// exact pop order. The workload is generated from the shared rng seed,
// so two harnesses with the same seed issue the identical schedule /
// cancel / re-arm script — any divergence in the pop log is a scheduler
// ordering bug.
type diffHarness struct {
	q      diffQueue
	rng    splitmix64
	log    []popRecord
	ids    []int // live timer ids, insertion-ordered (deterministic picks)
	timers map[int]func()
	nextID int
	fire   func(any) // the one callback every (do, arg) event shares
}

// callArg is the per-event state of a (do, arg) event.
type callArg struct{ id, depth int }

func newDiffHarness(q diffQueue, seed uint64) *diffHarness {
	h := &diffHarness{
		q:      q,
		rng:    splitmix64(seed),
		timers: make(map[int]func()),
	}
	h.fire = func(a any) {
		c := a.(*callArg)
		h.popped(c.id, c.depth)
	}
	return h
}

// takeLive removes and returns a deterministic live timer, or -1. Fired
// and cancelled ids linger in h.ids until drawn; the map is the truth.
func (h *diffHarness) takeLive() (int, func()) {
	for len(h.ids) > 0 {
		k := h.rng.intn(len(h.ids))
		id := h.ids[k]
		h.ids[k] = h.ids[len(h.ids)-1]
		h.ids = h.ids[:len(h.ids)-1]
		if cancel, ok := h.timers[id]; ok {
			return id, cancel
		}
	}
	return -1, nil
}

// newID registers a fresh timer id.
func (h *diffHarness) newID() int {
	id := h.nextID
	h.nextID++
	h.ids = append(h.ids, id)
	return id
}

// arm schedules one event with a fresh id; inside its callback it may
// recursively schedule, cancel or re-arm others, which is exactly what
// MAC handlers do.
func (h *diffHarness) arm(at Time, depth int) {
	id := h.newID()
	h.timers[id] = h.q.at(at, func() { h.popped(id, depth) })
}

// popped logs a fired event and runs its reaction.
func (h *diffHarness) popped(id, depth int) {
	h.log = append(h.log, popRecord{h.q.Now(), id})
	delete(h.timers, id)
	h.react(depth)
}

// react is the in-callback behaviour: a deterministic mix of near-term
// schedules (duty-cycle strobe trains), same-instant bursts (ACK
// turnarounds), far-future events (arrival schedules crossing the wheel
// horizon), cancels and re-arms.
func (h *diffHarness) react(depth int) {
	if depth <= 0 {
		return
	}
	now := h.q.Now()
	switch h.rng.intn(7) {
	case 0: // strobe-train burst: several short-interval events
		n := 1 + h.rng.intn(3)
		for i := 0; i < n; i++ {
			h.arm(now+h.rng.float64n(5e-3), depth-1)
		}
	case 1: // same-instant pile-up: FIFO tie-break must hold
		at := now + h.rng.float64n(1e-3)
		for i := 0; i < 3; i++ {
			h.arm(at, depth-1)
		}
	case 2: // far-future event beyond the 1 s wheel horizon
		h.arm(now+1.0+h.rng.float64n(30), depth-1)
	case 3: // cancel a random live timer
		if id, cancel := h.takeLive(); id >= 0 {
			cancel()
			delete(h.timers, id)
		}
	case 4: // re-arm: cancel one, schedule a replacement (fault timers)
		if id, cancel := h.takeLive(); id >= 0 {
			cancel()
			delete(h.timers, id)
			h.arm(now+h.rng.float64n(2), depth-1)
		}
	case 5: // past-time schedule: must clamp to now, FIFO after peers
		h.arm(now-1, depth-1)
	case 6: // (do, arg) form, as every MAC schedules: one shared func(any)
		id := h.newID()
		h.timers[id] = h.q.atCall(now+h.rng.float64n(5e-3), h.fire, &callArg{id, depth - 1})
		id = h.newID()
		h.timers[id] = h.q.afterCall(h.rng.float64n(2), h.fire, &callArg{id, depth - 1})
	}
}

// runScript seeds the harness with a near-periodic base load plus
// adversarial extras and executes it in segments (exercising run-to-
// horizon stops and DropPending, as phased and faulty runs do).
func (h *diffHarness) runScript(segments int) {
	for i := 0; i < 200; i++ { // near-periodic duty-cycle base load
		h.arm(h.rng.float64n(2)+float64(i%10)*0.1, 3)
	}
	for i := 0; i < 30; i++ { // beyond-horizon arrivals
		h.arm(1.0+h.rng.float64n(40), 2)
	}
	per := 50.0 / float64(segments)
	for s := 1; s <= segments; s++ {
		h.q.Run(per * float64(s))
		if s == segments/2 {
			// Epoch boundary: drop everything pending, then refill —
			// exactly what phased runs and fault epochs do.
			h.q.DropPending()
			clear(h.timers)
			h.ids = h.ids[:0]
			now := h.q.Now()
			for i := 0; i < 100; i++ {
				h.arm(now+h.rng.float64n(20), 3)
			}
		}
	}
	h.q.Run(1e9) // drain
}

// TestSchedulerDifferential holds the engine's timing wheel to the
// reference heap's exact pop order over randomized near-periodic plus
// adversarial scripts. The two queues run the same deterministic script
// (same seed); their pop logs must match record for record.
func TestSchedulerDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			heap := newDiffHarness(newRefHeap(), seed)
			wheel := newDiffHarness(engineQueue{NewEngine()}, seed)
			heap.runScript(7)
			wheel.runScript(7)
			n := len(heap.log)
			if len(wheel.log) < n {
				n = len(wheel.log)
			}
			for i := 0; i < n; i++ {
				if heap.log[i] != wheel.log[i] {
					t.Fatalf("pop %d diverges: heap=%+v wheel=%+v", i, heap.log[i], wheel.log[i])
				}
			}
			if len(heap.log) != len(wheel.log) {
				t.Fatalf("pop counts diverge: heap=%d wheel=%d (prefix of %d matches)", len(heap.log), len(wheel.log), n)
			}
			if hq, wq := heap.q.QueueLen(), wheel.q.QueueLen(); hq != 0 || wq != 0 {
				t.Fatalf("queues not drained: heap=%d wheel=%d", hq, wq)
			}
		})
	}
}

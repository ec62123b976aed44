package sim

// refHeap is the reference scheduler the engine's timing wheel is held
// to by TestSchedulerDifferential: an indexed 4-ary min-heap of arena
// slots keyed by (at, seq). It shares the engine's event layout and its
// clamping, free-list and FIFO rules, and nothing else.
type refHeap struct {
	now    Time
	seq    uint64
	events []event // arena; index = slot, loc = heap position
	free   int32   // head of the free-slot list, noSlot when empty
	order  []int32 // 4-ary min-heap of slots, keyed by (at, seq)
}

func newRefHeap() *refHeap { return &refHeap{free: noSlot} }

func (e *refHeap) Now() Time { return e.now }

func (e *refHeap) QueueLen() int { return len(e.order) }

// schedule mirrors Engine.schedule; (slot, gen) is the cancel handle.
func (e *refHeap) schedule(t Time, fn func(), do func(any), arg any) (int32, uint32) {
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
	ev.loc = int32(len(e.order))
	e.order = append(e.order, slot)
	e.siftUp(int(ev.loc))
	return slot, ev.gen
}

// cancel mirrors Engine.cancel.
func (e *refHeap) cancel(slot int32, gen uint32) {
	ev := &e.events[slot]
	if ev.gen != gen || ev.loc == noSlot {
		return
	}
	e.removeAt(int(ev.loc))
	e.release(slot)
}

// release mirrors Engine.release.
func (e *refHeap) release(slot int32) {
	ev := &e.events[slot]
	ev.fn = nil
	ev.do = nil
	ev.arg = nil
	ev.gen++
	ev.loc = noSlot
	ev.next = e.free
	e.free = slot
}

// DropPending mirrors Engine.DropPending.
func (e *refHeap) DropPending() {
	for _, slot := range e.order {
		e.release(slot)
	}
	e.order = e.order[:0]
}

// Run mirrors Engine.Run: pop in (at, seq) order up to the horizon,
// then advance the clock to it.
func (e *refHeap) Run(until Time) {
	for len(e.order) > 0 {
		slot := e.order[0]
		ev := &e.events[slot]
		if ev.at > until {
			break
		}
		e.now = ev.at
		fn, do, arg := ev.fn, ev.do, ev.arg
		e.removeAt(0)
		e.release(slot)
		if do != nil {
			do(arg)
		} else {
			fn()
		}
	}
	if e.now < until {
		e.now = until
	}
}

// less orders slots by (at, seq): earliest first, FIFO among equals.
func (e *refHeap) less(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// place writes slot at heap position i and records the position.
func (e *refHeap) place(slot int32, i int) {
	e.order[i] = slot
	e.events[slot].loc = int32(i)
}

func (e *refHeap) siftUp(i int) {
	slot := e.order[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(slot, e.order[parent]) {
			break
		}
		e.place(e.order[parent], i)
		i = parent
	}
	e.place(slot, i)
}

func (e *refHeap) siftDown(i int) {
	slot := e.order[i]
	n := len(e.order)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.order[c], e.order[best]) {
				best = c
			}
		}
		if !e.less(e.order[best], slot) {
			break
		}
		e.place(e.order[best], i)
		i = best
	}
	e.place(slot, i)
}

// removeAt deletes the heap entry at position i, restoring heap order.
// The caller releases (or has copied) the slot itself.
func (e *refHeap) removeAt(i int) {
	n := len(e.order) - 1
	lastSlot := e.order[n]
	e.order = e.order[:n]
	if i == n {
		return
	}
	e.place(lastSlot, i)
	// The moved slot may need to travel either direction.
	e.siftUp(i)
	e.siftDown(int(e.events[lastSlot].loc))
}

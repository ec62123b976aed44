package sim

import (
	"testing"
)

// QueueLen returns the number of events currently pending. Cancelled
// events are removed eagerly and never count.
func (e *Engine) QueueLen() int { return e.pending }

func TestEngineOrdersEvents(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.At(3, func() { got = append(got, 3) })
	eng.At(1, func() { got = append(got, 1) })
	eng.At(2, func() { got = append(got, 2) })
	eng.Run(10)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if eng.Now() != 10 {
		t.Errorf("Now = %v, want 10 (clock advances to the horizon)", eng.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		eng.At(1, func() { got = append(got, i) })
	}
	eng.Run(2)
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	eng := NewEngine()
	var times []Time
	eng.After(1, func() {
		times = append(times, eng.Now())
		eng.After(2, func() { times = append(times, eng.Now()) })
	})
	eng.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	timer := eng.After(1, func() { fired = true })
	timer.Cancel()
	eng.Run(2)
	if fired {
		t.Error("cancelled timer fired")
	}
	// Cancelling twice or after the horizon must not panic.
	timer.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel()
	var zeroTimer Timer
	zeroTimer.Cancel()
}

func TestEngineCancelAfterFire(t *testing.T) {
	eng := NewEngine()
	var first Timer
	fired := 0
	first = eng.After(1, func() { fired++ })
	// This event reuses no slot yet; after both fire, cancelling the
	// stale handles must not disturb newly scheduled events.
	eng.After(2, func() { fired++ })
	eng.Run(3)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	// Both slots are free now, with `first`'s slot below the LIFO free
	// head. Schedule two events so the second one reuses exactly that
	// slot, then cancel through the stale handle: the generation bump on
	// release must make the cancel a no-op and both events must fire.
	refired := 0
	eng.After(1, func() { refired++ })
	eng.After(1.5, func() { refired++ }) // lands in `first`'s old slot
	first.Cancel()
	eng.Run(6)
	if refired != 2 {
		t.Errorf("stale Cancel removed a reused slot's new event: %d of 2 fired", refired)
	}
}

func TestEngineCancelRemovesEvent(t *testing.T) {
	// A cancelled timer must leave the queue immediately — not linger as
	// a tombstone until popped. MAC layers cancel timers constantly; the
	// old heap leaked them until their timestamp came up.
	eng := NewEngine()
	const n = 100000
	for i := 0; i < n; i++ {
		tm := eng.After(1e9+float64(i), func() {})
		tm.Cancel()
	}
	if got := eng.QueueLen(); got != 0 {
		t.Fatalf("QueueLen = %d after cancelling all %d timers, want 0", got, n)
	}
	// Interleaved schedule/cancel with live events in between: the queue
	// must stay bounded by the live events only.
	live := 0
	for i := 0; i < n; i++ {
		tm := eng.After(2+float64(i)*1e-6, func() { live++ })
		tm2 := eng.After(1, func() {})
		tm2.Cancel()
		tm.Cancel()
	}
	if got := eng.QueueLen(); got != 0 {
		t.Fatalf("QueueLen = %d after interleaved cancels, want 0", got)
	}
	eng.Run(3)
	if live != 0 {
		t.Fatalf("cancelled events fired %d times", live)
	}
}

func TestEngineCancelMiddleKeepsOrder(t *testing.T) {
	// Removing an event from the middle of the heap must preserve the
	// (time, FIFO) order of the survivors.
	eng := NewEngine()
	var got []int
	timers := make([]Timer, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers[i] = eng.At(float64(10-i), func() { got = append(got, 10-i) })
	}
	timers[3].Cancel() // at time 7
	timers[8].Cancel() // at time 2
	eng.Run(20)
	want := []int{1, 3, 4, 5, 6, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.At(5, func() { fired = true })
	eng.Run(3)
	if fired {
		t.Error("event beyond the horizon fired")
	}
	if eng.Now() != 3 {
		t.Errorf("Now = %v, want 3", eng.Now())
	}
	eng.Run(6)
	if !fired {
		t.Error("event not fired after extending the horizon")
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	eng := NewEngine()
	eng.At(2, func() {
		eng.At(1, func() {
			if eng.Now() < 2 {
				t.Errorf("past-scheduled event ran at %v, before the clock", eng.Now())
			}
		})
	})
	eng.Run(3)
	if eng.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", eng.Processed())
	}
}

package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func newStore(t *testing.T, o Options) *Store {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// await follows j's event log to its terminal event and then reads the
// job's result and error: the two calls behind serve's events and
// result endpoints.
func await(t *testing.T, j *Job) (any, error) {
	t.Helper()
	if err := j.Events(context.Background(), 0, func(Event) error { return nil }); err != nil {
		t.Fatalf("Events: %v", err)
	}
	res, err, ok := j.Result()
	if !ok {
		t.Fatalf("job %s not terminal after its event log ended", j.id)
	}
	return res, err
}

func TestLifecycleDone(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	j, err := s.Submit("echo", 3, func(ctx context.Context, j *Job) (any, error) {
		for i := 0; i < 3; i++ {
			j.Advance("cell", map[string]int{"i": i})
		}
		return "result", nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := await(t, j)
	if err != nil || res != "result" {
		t.Fatalf("result = %v, %v", res, err)
	}
	snap := j.Snapshot()
	if snap.State != Done || snap.Done != 3 || snap.Total != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Started.IsZero() || snap.Finished.IsZero() || snap.Finished.Before(snap.Started) {
		t.Fatalf("timestamps wrong: %+v", snap)
	}
	// The event log replays the full lifecycle in order: queued,
	// running, three cells, done.
	var types []string
	if err := j.Events(context.Background(), 0, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	want := []string{"state", "state", "cell", "cell", "cell", "state"}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}
}

func TestFailedJobKeepsError(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	boom := errors.New("boom")
	j, err := s.Submit("bad", 1, func(context.Context, *Job) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := await(t, j); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := j.Snapshot(); st.State != Failed || st.Err != "boom" {
		t.Fatalf("snapshot = %+v", st)
	}
}

// TestCancelMidRun: cancelling a running job cancels its context; the
// job lands in Cancelled (not Failed) and waiters unblock.
func TestCancelMidRun(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	started := make(chan struct{})
	j, err := s.Submit("slow", 0, func(ctx context.Context, _ *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if _, ok := s.Cancel(j.id); !ok {
		t.Fatal("Cancel: job not found")
	}
	if _, err := await(t, j); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if st := j.Snapshot(); st.State != Cancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}

// TestCancelQueued: a job cancelled before any worker picks it up goes
// terminal immediately and the worker skips it.
func TestCancelQueued(t *testing.T) {
	s := newStore(t, Options{Workers: 1, Queue: 4})
	release := make(chan struct{})
	blocker, err := s.Submit("block", 0, func(ctx context.Context, _ *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	ran := make(chan struct{})
	queued, err := s.Submit("queued", 0, func(context.Context, *Job) (any, error) {
		close(ran)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if _, ok := s.Cancel(queued.id); !ok {
		t.Fatal("Cancel queued: not found")
	}
	if _, err := await(t, queued); !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued err = %v", err)
	}
	close(release)
	if _, err := await(t, blocker); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	select {
	case <-ran:
		t.Fatal("cancelled queued job still ran")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestQueueFullAdmission: one worker wedged, the queue filled — the
// next Submit is refused with ErrQueueFull, and admission resumes once
// the queue drains.
func TestQueueFullAdmission(t *testing.T) {
	const depth = 3
	s := newStore(t, Options{Workers: 1, Queue: depth})
	release := make(chan struct{})
	wedge := func(ctx context.Context, _ *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	var jobs []*Job
	// One running (dequeued) + depth queued.
	j, err := s.Submit("wedge", 0, wedge)
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	jobs = append(jobs, j)
	waitFor(t, func() bool { return j.Snapshot().State == Running })
	for i := 0; i < depth; i++ {
		jq, err := s.Submit(fmt.Sprintf("q%d", i), 0, wedge)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, jq)
	}
	if got := s.Depth(); got != depth {
		t.Fatalf("Depth = %d, want %d", got, depth)
	}
	if _, err := s.Submit("overflow", 0, wedge); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit err = %v, want ErrQueueFull", err)
	}
	close(release)
	for _, jq := range jobs {
		if _, err := await(t, jq); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if _, err := s.Submit("after", 0, func(context.Context, *Job) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
}

// TestTTLGC: finished jobs (and their spill files) expire after the
// TTL; live jobs survive.
func TestTTLGC(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, Options{Workers: 1, TTL: 50 * time.Millisecond, SpillDir: dir})
	j, err := s.Submit("short", 1, func(_ context.Context, j *Job) (any, error) {
		j.Advance("", nil)
		return map[string]string{"ok": "yes"}, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatalf("job: %v", err)
	}
	if _, err := os.Stat(s.resultPath(j.id)); err != nil {
		t.Fatalf("spilled result missing: %v", err)
	}
	// Not yet expired.
	if n := s.GC(j.Snapshot().Finished.Add(10 * time.Millisecond)); n != 0 {
		t.Fatalf("premature GC dropped %d jobs", n)
	}
	if n := s.GC(j.Snapshot().Finished.Add(time.Second)); n != 1 {
		t.Fatalf("GC dropped %d jobs, want 1", n)
	}
	if _, ok := s.Get(j.id); ok {
		t.Fatal("expired job still listed")
	}
	if _, err := os.Stat(s.resultPath(j.id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("expired spill file still present: %v", err)
	}
	if got := s.Counts()[Done]; got != 0 {
		t.Fatalf("done count after GC = %d", got)
	}
}

// marshalHook is a job result whose JSON encoding first calls the
// function itself.
type marshalHook func()

func (f marshalHook) MarshalJSON() ([]byte, error) {
	f()
	return []byte(`{"ok":"yes"}`), nil
}

// TestGCDuringSpill: a GC that lands while a finished job's result is
// still being spilled must not see the job as finished. If it did, it
// would delete files the spill then rewrites, and a restart would bring
// the expired job back. The result's MarshalJSON, which the spill's
// json.Marshal calls, runs the GC at exactly that instant, with the
// injected clock far past the TTL.
func TestGCDuringSpill(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1700000000, 0)
	s := newStore(t, Options{Workers: 1, TTL: time.Minute, SpillDir: dir})
	s.now = func() time.Time { return base }
	dropped := -1
	j, err := s.Submit("short", 1, func(context.Context, *Job) (any, error) {
		return marshalHook(func() { dropped = s.GC(base.Add(time.Hour)) }), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatalf("job: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("GC during the spill dropped %d jobs, want 0", dropped)
	}
	if _, ok := s.Get(j.id); !ok {
		t.Fatal("job collected before it was published")
	}
	assertGCExpires(t, s, dir, j.id, base)
}

// TestGCAfterPublish: once the terminal event is delivered, the spill
// is already on disk (no polling), and a later GC removes both the job
// and its files for good.
func TestGCAfterPublish(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1700000000, 0)
	s := newStore(t, Options{Workers: 1, TTL: time.Minute, SpillDir: dir})
	s.now = func() time.Time { return base }
	j, err := s.Submit("short", 1, func(context.Context, *Job) (any, error) {
		return map[string]string{"ok": "yes"}, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatalf("job: %v", err)
	}
	for _, path := range []string{s.resultPath(j.id), s.metaPath(j.id)} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("spill missing when the job was published: %v", err)
		}
	}
	if n := s.GC(base.Add(30 * time.Second)); n != 0 {
		t.Fatalf("GC inside the TTL dropped %d jobs", n)
	}
	assertGCExpires(t, s, dir, j.id, base)
}

// assertGCExpires runs a GC past the TTL of a job finished at `finished`
// and checks that the job, its spill files and any trace of it after a
// restart are gone.
func assertGCExpires(t *testing.T, s *Store, dir, id string, finished time.Time) {
	t.Helper()
	if n := s.GC(finished.Add(time.Hour)); n != 1 {
		t.Fatalf("GC past the TTL dropped %d jobs, want 1", n)
	}
	for _, path := range []string{s.resultPath(id), s.metaPath(id)} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("expired spill file %s still present: %v", path, err)
		}
	}
	s2 := newStore(t, Options{Workers: 1, SpillDir: dir})
	if _, ok := s2.Get(id); ok {
		t.Fatal("expired job resurrected by reload")
	}
}

// TestInjectedClock: job timestamps flow from the store's injected
// clock, so retention expiry is testable without sleeping.
func TestInjectedClock(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	base := time.Unix(1700000000, 0)
	s.now = func() time.Time { return base }
	j, err := s.Complete("cached", 1, "hit")
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	snap := j.Snapshot()
	if !snap.Created.Equal(base) || !snap.Finished.Equal(base) {
		t.Fatalf("timestamps = created %v / finished %v, want the injected instant", snap.Created, snap.Finished)
	}
	if n := s.GC(base.Add(DefaultTTL + time.Second)); n != 1 {
		t.Fatalf("GC past the TTL dropped %d jobs, want 1", n)
	}
}

// TestSpillReload: a finished job's result survives a store restart
// byte-for-byte (the crash-safety contract), restored as raw bytes.
func TestSpillReload(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Workers: 1, SpillDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	payload := []byte(`{"answer":42}` + "\n")
	j, err := s.Submit("bytes", 1, func(_ context.Context, j *Job) (any, error) {
		j.Advance("", nil)
		return payload, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatalf("job: %v", err)
	}
	id := j.id
	s.Close()

	s2 := newStore(t, Options{Workers: 1, SpillDir: dir})
	j2, ok := s2.Get(id)
	if !ok {
		t.Fatal("job lost across restart")
	}
	res, err, terminal := j2.Result()
	if !terminal || err != nil {
		t.Fatalf("Result = _, %v, %v", err, terminal)
	}
	got, ok := res.([]byte)
	if !ok || string(got) != string(payload) {
		t.Fatalf("restored result = %q, want %q", got, payload)
	}
	if st := j2.Snapshot(); st.State != Done || st.Done != 1 {
		t.Fatalf("restored snapshot = %+v", st)
	}
}

// TestReloadChecksIDAgainstName: a spilled metadata file loads only
// under its own job's name. A copied file, or one naming another job's
// ID, must not register a job twice, so List and Counts agree before
// and after GC.
func TestReloadChecksIDAgainstName(t *testing.T) {
	const unused = "0123456789abcdef" // a valid job ID no job has
	copyMeta := func(t *testing.T, dir, from, to string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, from+".job.json"))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, to+".job.json"), data, 0o644)
		}
		if err != nil {
			t.Fatalf("copy metadata: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		// tamper edits a spill directory holding jobs a and b and
		// returns the IDs a reload must list.
		tamper func(t *testing.T, dir, a, b string) []string
	}{
		{"copied file", func(t *testing.T, dir, a, b string) []string {
			copyMeta(t, dir, a, unused)
			return []string{a, b}
		}},
		{"names another job", func(t *testing.T, dir, a, b string) []string {
			copyMeta(t, dir, a, b)
			return []string{a}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newStore(t, Options{Workers: 1, SpillDir: dir})
			var ids []string
			for _, kind := range []string{"a", "b"} {
				j, err := s.Complete(kind, 1, []byte(kind))
				if err != nil {
					t.Fatalf("Complete: %v", err)
				}
				ids = append(ids, j.id)
			}
			s.Close()
			want := tc.tamper(t, dir, ids[0], ids[1])
			sort.Strings(want)

			s2 := newStore(t, Options{Workers: 1, SpillDir: dir})
			var got []string
			for _, snap := range s2.List() {
				got = append(got, snap.ID)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("reloaded jobs = %v, want %v", got, want)
			}
			if n := s2.Counts()[Done]; n != len(want) {
				t.Fatalf("Counts()[Done] = %d with %d jobs listed", n, len(want))
			}
			s2.GC(time.Now().Add(DefaultTTL + time.Hour))
			if n, listed := s2.Counts()[Done], len(s2.List()); n != 0 || listed != 0 {
				t.Fatalf("after GC: Counts()[Done] = %d with %d jobs listed, want 0 and 0", n, listed)
			}
		})
	}
}

// TestPollStampede: many goroutines hammering Snapshot/Result/Events on
// one running job must all observe a consistent lifecycle (run under
// -race, this is the data-race gate for the job tier).
func TestPollStampede(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	const cells = 20
	j, err := s.Submit("stampede", cells, func(_ context.Context, j *Job) (any, error) {
		for i := 0; i < cells; i++ {
			j.Advance("cell", i)
		}
		return "done", nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	const pollers = 32
	var wg sync.WaitGroup
	errs := make(chan error, pollers)
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			switch p % 3 {
			case 0: // poll snapshots until terminal
				for {
					st := j.Snapshot()
					if st.Done < 0 || st.Done > cells {
						errs <- fmt.Errorf("progress out of range: %+v", st)
						return
					}
					if st.State.Terminal() {
						return
					}
				}
			case 1: // poll the result until terminal
				for {
					res, err, ok := j.Result()
					if !ok {
						continue
					}
					if err != nil || res != "done" {
						errs <- fmt.Errorf("Result = %v, %v", res, err)
					}
					return
				}
			default: // follow the event log and check seq density
				next := 0
				if err := j.Events(context.Background(), 0, func(ev Event) error {
					if ev.Seq != next {
						return fmt.Errorf("seq %d, want %d", ev.Seq, next)
					}
					next++
					return nil
				}); err != nil {
					errs <- err
				}
				// queued + running + cells + done
				if next != cells+3 {
					errs <- fmt.Errorf("saw %d events, want %d", next, cells+3)
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEventsResumeFrom: a follower resuming from a mid-log seq sees
// only the tail.
func TestEventsResumeFrom(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	j, err := s.Submit("resume", 2, func(_ context.Context, j *Job) (any, error) {
		j.Advance("cell", "a")
		j.Advance("cell", "b")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatalf("job: %v", err)
	}
	var seqs []int
	if err := j.Events(context.Background(), 3, func(ev Event) error {
		seqs = append(seqs, ev.Seq)
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	// Full log: 0 queued, 1 running, 2-3 cells, 4 done. From 3: [3, 4].
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("resumed seqs = %v, want [3 4]", seqs)
	}
}

func TestCompleteIsBornDone(t *testing.T) {
	s := newStore(t, Options{Workers: 1})
	j, err := s.Complete("cached", 5, json.RawMessage(`{"hit":true}`))
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	st := j.Snapshot()
	if st.State != Done || st.Done != 5 || st.Total != 5 {
		t.Fatalf("snapshot = %+v", st)
	}
	res, err, ok := j.Result()
	if !ok || err != nil || string(res.(json.RawMessage)) != `{"hit":true}` {
		t.Fatalf("Result = %v, %v, %v", res, err, ok)
	}
	if got := s.Counts()[Done]; got != 1 {
		t.Fatalf("done count = %d", got)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Close()
	if _, err := s.Submit("late", 0, func(context.Context, *Job) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// waitFor polls cond with a deadline — for transitions driven by the
// worker goroutines.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseTerminatesGoroutines pins at runtime what goroleak proves
// statically: the worker pool, the TTL janitor and a live event
// subscriber all exit once the Store closes (workers and janitor join
// the store WaitGroup via the base context; the subscriber joins a
// done channel). A revert of that lifecycle discipline leaves the
// goroutine count elevated and fails the settle loop below.
func TestCloseTerminatesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Options{Workers: 3, TTL: time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// A job parked on its context, so Close has something running to
	// cancel.
	started := make(chan struct{})
	j, err := s.Submit("park", 0, func(ctx context.Context, _ *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	// An event subscriber following the live job, joined on its own
	// done channel.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		_ = j.Events(subCtx, 0, func(Event) error { return nil })
	}()

	s.Close()
	subCancel()
	select {
	case <-subDone:
	case <-time.After(5 * time.Second):
		t.Fatal("event subscriber did not exit after Close + cancel")
	}

	// Goroutine exits land asynchronously after Close returns; settle
	// before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

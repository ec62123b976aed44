// Package jobs is the job store behind the async serving API: a
// bounded admission queue feeding a small worker pool, with per-job
// progress counters, an ordered event log any number of followers can
// tail, TTL-based garbage collection of finished jobs, and an optional
// crash-safe disk spill of finished results.
//
// Its front end is internal/serve's /v1/jobs handlers. A job is (kind,
// total, run function); serve's run functions return the marshalled
// response bytes, so a fetched result is byte-identical to the
// synchronous endpoint's answer and spills verbatim. Admission control
// is the bounded queue: Submit on a full queue fails with ErrQueueFull
// instead of queueing unboundedly, which is what lets one slow tenant
// be refused instead of starving the rest (the explicit admission the
// related work argues for).
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrQueueFull is Submit's admission-control refusal: the queue is at
// capacity and the job was not accepted. Callers surface it as 429.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrCancelled marks a job terminated by Cancel rather than by its own
// run function.
var ErrCancelled = errors.New("jobs: cancelled")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: store closed")

// State is a job's lifecycle position. The terminal states are Done,
// Failed and Cancelled.
type State string

const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// States lists every state in lifecycle order — the fixed label set
// metrics iterate so gauges exist (at zero) before any job does.
func States() []State {
	return []State{Queued, Running, Done, Failed, Cancelled}
}

// RunFunc executes one job. The context is cancelled by Cancel and by
// Close; the function should return promptly once it is. The returned
// value becomes the job's result; a non-nil error fails the job (or
// cancels it, when the error is the cancellation's).
type RunFunc func(ctx context.Context, j *Job) (any, error)

// Options configure a Store.
type Options struct {
	// Queue bounds the number of jobs admitted but not yet picked up by
	// a worker; Submit beyond it fails with ErrQueueFull. Values below 1
	// select DefaultQueue.
	Queue int
	// Workers is the number of jobs executed concurrently. Jobs are
	// internally parallel already (suites fan out over the client's own
	// pool), so this stays small; values below 1 select DefaultWorkers.
	Workers int
	// TTL is how long finished jobs (and their spilled results) are
	// retained before the garbage collector drops them. Values <= 0
	// select DefaultTTL.
	TTL time.Duration
	// SpillDir, when non-empty, persists every successfully finished
	// job to disk (metadata plus encoded result) and reloads them on
	// New — a restart keeps serving results for jobs that completed
	// before the crash. A []byte result spills verbatim, any other
	// through json.Marshal; an encoding error skips the spill without
	// failing the job. The directory is created if missing.
	SpillDir string
}

const (
	DefaultQueue   = 64
	DefaultWorkers = 2
	DefaultTTL     = 15 * time.Minute
)

func (o Options) withDefaults() Options {
	if o.Queue < 1 {
		o.Queue = DefaultQueue
	}
	if o.Workers < 1 {
		o.Workers = DefaultWorkers
	}
	if o.TTL <= 0 {
		o.TTL = DefaultTTL
	}
	return o
}

// Event is one entry of a job's ordered event log: a state transition,
// a bare progress tick, or a payload-carrying item (a finished suite
// cell, say). Seq is dense from 0, so followers can resume from any
// position.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // "state", "progress", or a submitter-chosen payload type
	State State  `json:"state,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total,omitempty"`
	Err   string `json:"error,omitempty"`
	// Payload is the item attached by Job.Advance; nil on state and
	// bare progress events.
	Payload any `json:"payload,omitempty"`
}

// Snapshot is an immutable copy of a job's externally visible state.
type Snapshot struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    State     `json:"state"`
	Done     int       `json:"done"`
	Total    int       `json:"total,omitempty"`
	Created  time.Time `json:"created_at"`
	Started  time.Time `json:"started_at,omitzero"`
	Finished time.Time `json:"finished_at,omitzero"`
	Err      string    `json:"error,omitempty"`
}

// Job is one submitted unit of work. All methods are safe for
// concurrent use; the run function additionally uses Advance to
// publish progress.
type Job struct {
	id   string
	kind string
	run  RunFunc

	mu       sync.Mutex
	state    State
	done     int
	total    int
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	err      error
	events   []Event
	wake     chan struct{}      // re-made on every append; closed to wake followers
	cancel   context.CancelFunc // set while running
	// cancelled records a Cancel request so a run function that returns
	// the cancellation error lands in Cancelled, not Failed.
	cancelled bool
	// finishing claims the terminal transition while finish spills the
	// result unlocked, so a concurrent finish (Cancel, Close) backs off.
	finishing bool
}

// Snapshot returns a copy of the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: j.done, Total: j.total,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Advance increments the job's progress counter and appends a
// payload-carrying event of the given type (payload may be nil for a
// bare tick, recorded as type "progress" when typ is empty). Only the
// run function should call it.
func (j *Job) Advance(typ string, payload any) {
	if typ == "" {
		typ = "progress"
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	j.appendLocked(Event{Type: typ, Payload: payload})
}

// appendLocked stamps seq/done/total onto ev, appends it and wakes
// followers. Callers hold j.mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.Done = j.done
	ev.Total = j.total
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// Result returns the job's outcome. ok is false while the job is still
// queued or running. For jobs restored from the spill directory the
// result is the raw encoded bytes ([]byte).
func (j *Job) Result() (result any, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil, false
	}
	return j.result, j.err, true
}

// Events replays the job's event log from seq `from` and then follows
// it live, calling fn for each event in order. It returns nil once the
// terminal state event has been delivered, fn's error if fn fails, or
// ctx's error if the context ends first. fn is called without locks
// held and never concurrently from one Events call.
func (j *Job) Events(ctx context.Context, from int, fn func(Event) error) error {
	if from < 0 {
		from = 0
	}
	for {
		j.mu.Lock()
		var batch []Event
		if from < len(j.events) {
			batch = append(batch, j.events[from:]...)
		}
		terminal := j.state.Terminal()
		w := j.wake
		j.mu.Unlock()
		for _, ev := range batch {
			if err := fn(ev); err != nil {
				return err
			}
		}
		from += len(batch)
		if terminal {
			// The terminal state flips under the same lock that appends
			// its event, so a terminal snapshot's batch always contains
			// the terminal event — everything has been delivered.
			return nil
		}
		select {
		case <-w:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Store is the job tier: admission queue, worker pool, registry and
// janitor. Construct with New; Close releases the workers.
type Store struct {
	opts Options

	//edvet:ignore ctxfirst lifecycle context of the worker pool, cancelled in Close — not a request context
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	counts map[State]int
	closed bool

	queue chan *Job
	wg    sync.WaitGroup

	// now supplies job timestamps (created/started/finished) and the
	// janitor's cutoff; replaceable in tests so TTL expiry is testable
	// without sleeping. These are wall-clock telemetry for clients, not
	// simulation time — the deterministic core never sees them.
	now func() time.Time
}

// New builds a store, reloads any spilled jobs from Options.SpillDir,
// and starts the workers and the GC janitor.
func New(o Options) (*Store, error) {
	o = o.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Store{
		opts:       o,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		counts:     map[State]int{},
		queue:      make(chan *Job, o.Queue),
		now:        time.Now,
	}
	if o.SpillDir != "" {
		if err := s.reload(); err != nil {
			cancel()
			return nil, err
		}
	}
	for w := 0; w < o.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.janitor()
	return s, nil
}

// Close cancels running jobs, marks queued ones cancelled, stops the
// workers and the janitor, and waits for them. Submit fails afterwards.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	// Anything still queued was never picked up: cancel it so followers
	// unblock.
	for {
		select {
		case j := <-s.queue:
			s.finish(j, nil, ErrCancelled)
		default:
			return
		}
	}
}

// Submit admits a job: kind is the submitter's label, total the
// progress denominator (0 when unknown), run the work. It returns
// ErrQueueFull when the queue is at capacity — the admission-control
// contract — and ErrClosed after Close.
func (s *Store) Submit(kind string, total int, run RunFunc) (*Job, error) {
	j, err := s.register(kind, total, Queued)
	if err != nil {
		return nil, err
	}
	j.run = run
	select {
	case s.queue <- j:
		return j, nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.counts[Queued]--
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// Complete registers a job that is already done — the fast path for
// results served straight from a cache, which must still be fetchable
// by ID like any other job.
func (s *Store) Complete(kind string, total int, result any) (*Job, error) {
	j, err := s.register(kind, total, Queued)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.done = j.total
	j.mu.Unlock()
	s.finish(j, result, nil)
	return j, nil
}

// register creates and indexes a fresh job in the given initial state,
// with the initial state event appended.
func (s *Store) register(kind string, total int, st State) (*Job, error) {
	id, err := newID()
	if err != nil {
		return nil, err
	}
	j := &Job{
		id: id, kind: kind,
		state: st, total: total,
		created: s.now(),
		wake:    make(chan struct{}),
	}
	j.mu.Lock()
	j.appendLocked(Event{Type: "state", State: st})
	j.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.jobs[id] = j
	s.counts[st]++
	return j, nil
}

// Get returns the job with the given ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns snapshots of every known job, oldest first (ties broken
// by ID so the order is stable).
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	out := make([]Snapshot, len(all))
	for i, j := range all {
		out[i] = j.Snapshot()
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Cancel requests cancellation of the job: queued jobs move straight
// to Cancelled, running jobs have their context cancelled (reaching
// Cancelled when the run function returns). It reports whether the job
// exists; cancelling a terminal job is a no-op.
func (s *Store) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	switch j.state {
	case Queued:
		j.cancelled = true
		j.mu.Unlock()
		// The worker skips cancelled-while-queued jobs; finish now so
		// followers unblock immediately.
		s.finish(j, nil, ErrCancelled)
		return j, true
	case Running:
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return j, true
	default:
		j.mu.Unlock()
		return j, true
	}
}

// Depth reports the number of admitted jobs not yet picked up by a
// worker — the queue-depth gauge.
func (s *Store) Depth() int {
	return len(s.queue)
}

// Counts returns the number of jobs currently in each state.
func (s *Store) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, len(s.counts))
	for _, st := range States() {
		out[st] = s.counts[st]
	}
	return out
}

// worker executes queued jobs until the store closes.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.execute(j)
		case <-s.baseCtx.Done():
			return
		}
	}
}

// execute runs one job through its lifecycle.
func (s *Store) execute(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.mu.Lock()
	if j.state != Queued || j.cancelled {
		// Cancelled (or finished by Close) while waiting in the queue.
		j.mu.Unlock()
		return
	}
	prev := j.state
	j.state = Running
	j.started = s.now()
	j.cancel = cancel
	j.appendLocked(Event{Type: "state", State: Running})
	j.mu.Unlock()
	s.transition(prev, Running)

	result, err := j.run(ctx, j)
	j.mu.Lock()
	j.cancel = nil
	cancelled := j.cancelled
	j.mu.Unlock()
	if err != nil && cancelled && (errors.Is(err, context.Canceled) || errors.Is(err, ErrCancelled)) {
		err = ErrCancelled
	}
	s.finish(j, result, err)
}

// finish moves a job to its terminal state and appends the terminal
// event. A successful result is spilled before the state is published,
// so whoever observes Done (Result, Events, GC) finds it on disk, and GC
// can never delete the files ahead of the write that creates them.
func (s *Store) finish(j *Job, result any, err error) {
	final := Done
	switch {
	case errors.Is(err, ErrCancelled):
		final = Cancelled
	case err != nil:
		final = Failed
	}
	j.mu.Lock()
	if j.state.Terminal() || j.finishing {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	finished := s.now()
	snap := j.snapshotLocked()
	j.mu.Unlock()
	if final == Done && s.opts.SpillDir != "" {
		snap.State, snap.Finished = final, finished
		s.spill(snap, result)
	}

	// The state and its count change under one hold of s.mu, which GC
	// holds while it drops terminal jobs, so GC never uncounts a job
	// whose terminal state is not counted yet.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	prev := j.state
	j.state = final
	j.result = result
	j.err = err
	j.finished = finished
	ev := Event{Type: "state", State: final}
	if err != nil {
		ev.Err = err.Error()
	}
	j.appendLocked(ev)
	j.mu.Unlock()
	s.counts[prev]--
	s.counts[final]++
}

// transition moves one job between state buckets.
func (s *Store) transition(from, to State) {
	s.mu.Lock()
	s.counts[from]--
	s.counts[to]++
	s.mu.Unlock()
}

// janitor drops finished jobs older than the TTL, ticking every
// eighth of it, clamped to 1 s–1 min.
func (s *Store) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(min(max(s.opts.TTL/8, time.Second), time.Minute))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.GC(s.now())
		case <-s.baseCtx.Done():
			return
		}
	}
}

// GC removes terminal jobs whose retention expired before now and
// returns how many were dropped. The janitor calls it periodically;
// tests call it directly.
func (s *Store) GC(now time.Time) int {
	cutoff := now.Add(-s.opts.TTL)
	s.mu.Lock()
	var expired []*Job
	for id, j := range s.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(cutoff)
		st := j.state
		j.mu.Unlock()
		if gone {
			delete(s.jobs, id)
			s.counts[st]--
			expired = append(expired, j)
		}
	}
	s.mu.Unlock()
	for _, j := range expired {
		if s.opts.SpillDir != "" {
			os.Remove(s.metaPath(j.id))
			os.Remove(s.resultPath(j.id))
		}
	}
	return len(expired)
}

// --- disk spill -------------------------------------------------------

func (s *Store) metaPath(id string) string {
	return filepath.Join(s.opts.SpillDir, id+".job.json")
}

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.opts.SpillDir, id+".result")
}

// spill persists a finished job: the result bytes first, the metadata
// second (both via temp-file rename), so a crash mid-spill leaves at
// worst an orphaned result file, never a metadata file pointing at a
// missing or truncated result.
func (s *Store) spill(snap Snapshot, result any) {
	data, ok := encodeResult(result)
	if !ok {
		return
	}
	meta, err := json.Marshal(snap)
	if err != nil {
		return
	}
	if err := os.MkdirAll(s.opts.SpillDir, 0o755); err != nil {
		return
	}
	if writeAtomic(s.resultPath(snap.ID), data) == nil {
		writeAtomic(s.metaPath(snap.ID), meta)
	}
}

// encodeResult turns a finished job's result into its spilled bytes:
// []byte results pass through verbatim so byte-exact payloads survive
// the round trip, anything else is JSON-encoded.
func encodeResult(result any) ([]byte, bool) {
	switch v := result.(type) {
	case []byte:
		return v, true
	case json.RawMessage:
		return []byte(v), true
	}
	data, err := json.Marshal(result)
	if err != nil {
		return nil, false
	}
	return data, true
}

func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// reload restores spilled jobs. Only successfully finished jobs are
// ever spilled, so everything that loads is Done; its result is the
// raw encoded bytes. A metadata file loads only under its own job's
// name, so a copied or renamed file cannot register a job twice.
func (s *Store) reload() error {
	entries, err := os.ReadDir(s.opts.SpillDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: reload spill dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".job.json") {
			continue
		}
		meta, err := os.ReadFile(filepath.Join(s.opts.SpillDir, name))
		if err != nil {
			continue
		}
		var snap Snapshot
		if err := json.Unmarshal(meta, &snap); err != nil || snap.ID == "" || snap.ID+".job.json" != name || snap.State != Done {
			continue
		}
		result, err := os.ReadFile(s.resultPath(snap.ID))
		if err != nil {
			continue
		}
		j := &Job{
			id: snap.ID, kind: snap.Kind,
			state: Done, done: snap.Done, total: snap.Total,
			created: snap.Created, started: snap.Started, finished: snap.Finished,
			result: result,
			wake:   make(chan struct{}),
		}
		j.mu.Lock()
		j.done = snap.Done
		j.appendLocked(Event{Type: "state", State: Done})
		j.mu.Unlock()
		s.jobs[j.id] = j
		s.counts[Done]++
	}
	return nil
}

// newID returns a 16-hex-character random job identifier.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

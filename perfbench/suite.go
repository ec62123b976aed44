package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/par"
	"github.com/edmac-project/edmac/internal/scenario"
)

// The suite-matrix workload: the full builtin matrix (every scenario
// under every protocol, DefaultSuiteDuration simulated seconds per cell)
// through Client.Suite on a two-worker pool, which is what `edsim suite`
// and CI run. One operation is one whole matrix plus its JSON encoding.
const (
	suiteWorkers   = 2
	goldenPath     = "cmd/edsim/testdata/suite_golden.json" // relative to the checkout root, the working directory
	goldenSeed     = 1
	warmupDuration = 40.0 // simulated seconds per warm-up cell
)

type suiteMatrix struct {
	cli  *edmac.Client
	req  edmac.SuiteRequest
	want []byte // the golden at goldenSeed; else the run's first matrix
}

func setupSuiteMatrix(ctx context.Context, c *config) (workload, error) {
	cli, err := edmac.NewClient(edmac.WithWorkers(suiteWorkers))
	if err != nil {
		return nil, err
	}
	s := &suiteMatrix{cli: cli, req: edmac.SuiteRequest{
		Scenarios: edmac.BuiltinScenarios(),
		Protocols: edmac.Protocols(),
		Options:   edmac.SuiteOptions{Duration: edmac.DefaultSuiteDuration, Seed: c.seed, Workers: suiteWorkers},
	}}
	if c.seed == goldenSeed {
		if s.want, err = os.ReadFile(goldenPath); err != nil {
			return nil, fmt.Errorf("suite golden: %w", err)
		}
	}
	// Warm-up: the first scenario under every protocol, short cells.
	warm := s.req
	warm.Scenarios = warm.Scenarios[:1]
	warm.Options.Duration = warmupDuration
	if _, err := cli.Suite(ctx, warm); err != nil {
		return nil, fmt.Errorf("suite warm-up: %w", err)
	}
	return s, nil
}

func (s *suiteMatrix) close() {}

func (s *suiteMatrix) header() string { return "closed loop, 1 caller, 2-worker pool" }

// checkReport compares a matrix with its reference byte for byte.
func checkReport(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	return fmt.Errorf("matrix differs from its reference at byte %d (lengths %d, %d)", at, len(got), len(want))
}

// check verifies one encoded matrix; the first matrix of a run without a
// golden becomes the reference for the rest.
func (s *suiteMatrix) check(ph *phase, data []byte) bool {
	if s.want == nil {
		s.want = data
		return true
	}
	if err := checkReport(data, s.want); err != nil {
		ph.fail("%v", err)
		return false
	}
	return true
}

func (s *suiteMatrix) measure(ctx context.Context, d time.Duration, _ bool) (*phase, error) {
	ph := newPhase()
	ph.loopRun = closedLoop(1, d, func(int) func() bool {
		rep, err := s.cli.Suite(ctx, s.req)
		var data []byte
		if err == nil {
			data, err = rep.JSON()
		}
		return func() bool {
			if err != nil {
				ph.fail("suite: %v", err)
				return false
			}
			return s.check(ph, data)
		}
	})
	ph.keepRetainedHeap()
	ph.counters["client.cache_hit_ratio"] = cacheRatio(s.cli.CacheStats())
	return ph, nil
}

func (s *suiteMatrix) replay(ctx context.Context, d time.Duration, r replayer) (*phase, error) {
	if s.want == nil {
		return nil, fmt.Errorf("suite replay needs a reference matrix")
	}
	var ref edmac.SuiteReport
	if err := json.Unmarshal(s.want, &ref); err != nil {
		return nil, fmt.Errorf("suite reference: %w", err)
	}
	specs := scenario.Builtins()
	ph := newPhase()
	ph.loopRun = closedLoop(1, d, func(i int) func() bool {
		err := s.replayMatrix(ctx, r, int64(i), specs, &ref)
		return func() bool {
			if err != nil {
				r.st.mismatches.Add(1)
				ph.fail("suite replay: %v", err)
			}
			return err == nil
		}
	})
	return ph, nil
}

// replayMatrix replays one matrix the way Client.Suite computes it:
// every scenario materialized once, then the cells on a two-worker
// par.ForEach pool, then the report encoding. The result must equal the
// reference matrix byte for byte.
func (s *suiteMatrix) replayMatrix(ctx context.Context, r replayer, op int64, specs []scenario.Spec, ref *edmac.SuiteReport) error {
	root := r.tr.begin(rootSpan, noParent, op)
	defer r.tr.end(root)
	o := s.req.Options
	protos := s.req.Protocols
	mats := make([]matScenario, len(specs))
	rows := make([]edmac.SuiteScenario, len(specs))
	for i, spec := range specs {
		id := r.tr.begin("client.scenario", root, op)
		var mat *scenario.Materialized
		var err error
		r.tr.do("scenario.materialize", id, op, func() { mat, err = spec.Materialize() })
		if err != nil {
			r.tr.end(id)
			return err
		}
		mats[i] = prepareScenario(spec, mat, o.Duration, true)
		rows[i] = mats[i].row()
		r.tr.end(id)
	}
	if len(ref.Cells) != len(mats)*len(protos) {
		return fmt.Errorf("reference has %d cells, want %d", len(ref.Cells), len(mats)*len(protos))
	}

	cells := make([]edmac.SuiteCell, len(ref.Cells))
	var mu sync.Mutex
	var busy, cellMax float64
	var laneLast [suiteWorkers]time.Time
	lanes := make(chan int, suiteWorkers)
	for w := 0; w < suiteWorkers; w++ {
		lanes <- w
	}
	pool := r.tr.begin("par.foreach", root, op)
	start := time.Now()
	err := par.ForEach(ctx, len(cells), suiteWorkers, func(idx int) {
		lane := <-lanes
		t0 := time.Now()
		id := r.tr.begin("client.cell", pool, op)
		cells[idx] = r.cell(id, op, &mats[idx/len(protos)], protos[idx%len(protos)],
			o.Duration, edmac.DefaultEnergyBudget(), cellSeed(ref.Cells[idx]))
		r.tr.end(id)
		t1 := time.Now()
		mu.Lock()
		busy += t1.Sub(t0).Seconds()
		cellMax = max(cellMax, t1.Sub(t0).Seconds())
		laneLast[lane] = t1
		mu.Unlock()
		lanes <- lane
	})
	end := time.Now()
	r.tr.end(pool)
	if err != nil {
		return err
	}
	tail := 0.0
	for _, t := range laneLast {
		if !t.IsZero() {
			tail += end.Sub(t).Seconds()
		}
	}
	r.st.addPool(busy, end.Sub(start).Seconds()*suiteWorkers, tail, cellMax)

	report := &edmac.SuiteReport{Version: scenario.Version, Seed: o.Seed, Duration: o.Duration,
		Scenarios: rows, Protocols: protos, Cells: cells}
	var data []byte
	r.tr.do("client.encode", root, op, func() { data, err = report.JSON() })
	if err != nil {
		return err
	}
	return checkReport(data, s.want)
}

func (st *replayStats) addPool(busy, capacity, tail, cellMax float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.parBusy += busy
	st.parWall += capacity
	st.parTail += tail
	st.parCellMax = max(st.parCellMax, cellMax)
}

func cacheRatio(c edmac.CacheStats) float64 {
	return ratio(float64(c.Hits), float64(c.Hits+c.Misses))
}

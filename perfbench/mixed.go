package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/jobs"
	"github.com/edmac-project/edmac/internal/serve"
)

// The serve-mixed workload: an open loop at mixedRate with seeded
// Poisson arrivals and at most two requests in flight, latency timed from
// each request's due time. Most requests are response-cache hits on a few
// optimize bodies, spelled with varied field order and whitespace so the
// canonical key does real work. The rest are distinct short simulations
// of builtin scenarios, each re-materializing its scenario, and one-cell
// suite jobs walked submit → events → result. The distinct simulations
// overflow the response cache, so evicting writes mix with the reads.
const (
	mixedWorkers = 2
	jobsChecked  = 3 // job results compared with a synchronous answer
)

type serveMixed struct {
	srv    *serve.Server
	h      http.Handler
	seed   int64
	hits   []edmac.OptimizeRequest
	want   [][]byte // each hit body's response
	sims   []simTarget
	jobs   []jobTarget
	served digests // response digests by request index, kept for a traced replay

	mu         sync.Mutex
	jobResults map[int][]byte // job results by request index, kept for a traced replay
}

func setupServeMixed(_ context.Context, c *config) (workload, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("suite golden: %w", err)
	}
	var ref edmac.SuiteReport
	if err := json.Unmarshal(golden, &ref); err != nil {
		return nil, fmt.Errorf("suite golden: %w", err)
	}
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, err
	}
	m := &serveMixed{srv: srv, h: srv.Handler(), seed: c.seed, hits: mixedHitRequests(c.seed),
		jobResults: map[int][]byte{}}
	for _, cell := range ref.Cells {
		m.jobs = append(m.jobs, jobTarget{cell.Scenario, cell.Protocol})
		if cell.Err == "" && cell.Protocol != edmac.SCPMAC {
			m.sims = append(m.sims, simTarget{cell.Scenario, cell.Protocol, cell.Params})
		}
	}
	// Warm-up: the optimize warm-up, then one miss per hit body, which
	// fills the response cache.
	if err := warmOptimize(func(body []byte) (int, error) {
		return send(m.h, http.MethodPost, "/v1/optimize", body).Code, nil
	}); err != nil {
		srv.Close()
		return nil, err
	}
	for _, req := range m.hits {
		rec := send(m.h, http.MethodPost, "/v1/optimize", spellOptimize(req, 0))
		if rec.Code != http.StatusOK {
			srv.Close()
			return nil, fmt.Errorf("serve-mixed warm-up: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		m.want = append(m.want, rec.Body.Bytes())
	}
	return m, nil
}

func (m *serveMixed) close() { m.srv.Close() }

func (m *serveMixed) header() string {
	return fmt.Sprintf("open loop, rate=%g/s, limit_ms=%g, %d in flight", mixedRate, mixedLimit*1e3, mixedWorkers)
}

func (m *serveMixed) body(q mixedReq) []byte {
	switch q.kind {
	case kindSimulate:
		return simulateBody(m.sims[q.target], q.seed)
	case kindJob:
		return jobBody(m.jobs[q.target], q.seed)
	}
	return spellOptimize(m.hits[q.hit], q.spell)
}

func (m *serveMixed) schedule(d time.Duration) ([]mixedReq, []float64) {
	sched := mixedSchedule(m.seed, d.Seconds(), len(m.sims), len(m.jobs))
	dues := make([]float64, len(sched))
	for i, q := range sched {
		dues[i] = q.due
	}
	return sched, dues
}

// jobWalk is what a caller sees of one job.
type jobWalk struct {
	submit, events, result *responseCopy
	status                 jobStatus
}

// responseCopy keeps what a check needs from a recorded response.
type responseCopy struct {
	code  int
	cache string
	body  []byte
}

func recorded(code int, header http.Header, body []byte) *responseCopy {
	return &responseCopy{code: code, cache: header.Get("X-Cache"), body: body}
}

type jobStatus struct {
	ID         string    `json:"id"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
}

// walkJob submits a job, follows its event stream to the end and
// fetches its result.
func (m *serveMixed) walkJob(body []byte) jobWalk {
	var w jobWalk
	rec := send(m.h, http.MethodPost, "/v1/jobs", body)
	w.submit = recorded(rec.Code, rec.Header(), rec.Body.Bytes())
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &w.status) != nil {
		return w
	}
	rec = send(m.h, http.MethodGet, "/v1/jobs/"+w.status.ID+"/events", nil)
	w.events = recorded(rec.Code, rec.Header(), rec.Body.Bytes())
	rec = send(m.h, http.MethodGet, "/v1/jobs/"+w.status.ID+"/result", nil)
	w.result = recorded(rec.Code, rec.Header(), rec.Body.Bytes())
	return w
}

// checkJob verifies a job walk: admitted as a miss, an event stream that
// ends in the done state, and a one-cell report without error.
func checkJob(ph *phase, w jobWalk) bool {
	if w.submit.code != http.StatusAccepted || w.submit.cache != "MISS" || w.events == nil {
		ph.fail("job submit: status %d, X-Cache %q: %s", w.submit.code, w.submit.cache, w.submit.body)
		return false
	}
	lines := strings.Split(strings.TrimSpace(string(w.events.body)), "\n")
	var last jobs.Event
	if w.events.code != http.StatusOK || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || last.State != jobs.Done {
		ph.fail("job events: status %d, last event %q", w.events.code, lines[len(lines)-1])
		return false
	}
	var rep edmac.SuiteReport
	if w.result.code != http.StatusOK || json.Unmarshal(w.result.body, &rep) != nil ||
		len(rep.Cells) != 1 || rep.Cells[0].Err != "" {
		ph.fail("job result: status %d: %.200s", w.result.code, w.result.body)
		return false
	}
	ph.note("jobs.events_per_job", float64(len(lines)))
	return true
}

// checkSimulate verifies a simulation answer: a fresh run of the
// requested protocol, seed and length.
func checkSimulate(ph *phase, q mixedReq, t simTarget, r *responseCopy) bool {
	var rep struct {
		Sim wireSim `json:"sim"`
	}
	if r.code != http.StatusOK || r.cache != "MISS" || json.Unmarshal(r.body, &rep) != nil ||
		rep.Sim.Protocol != t.protocol || rep.Sim.Seed != q.seed || rep.Sim.Duration != mixedSimS || rep.Sim.Nodes == 0 {
		ph.fail("simulate: status %d, X-Cache %q: %.200s", r.code, r.cache, r.body)
		return false
	}
	return true
}

func (m *serveMixed) measure(_ context.Context, d time.Duration, detail bool) (*phase, error) {
	ph := newPhase()
	sched, dues := m.schedule(d)
	ph.kinds = make([]kind, len(sched))
	checked := make([][]byte, 0, jobsChecked)
	checkedBodies := make([][]byte, 0, jobsChecked)
	before := healthz(m.h)
	ph.loopRun = openLoop(mixedWorkers, dues, func(k int) func() bool {
		q := sched[k]
		ph.kinds[k] = q.kind
		body := m.body(q)
		if q.kind == kindJob {
			w := m.walkJob(body)
			return func() bool {
				ph.count(w.submit.cache)
				ok := checkJob(ph, w)
				if ok && detail {
					m.served.put(k, w.result.body)
					m.mu.Lock()
					m.jobResults[k] = w.result.body
					m.mu.Unlock()
					m.jobTimes(ph, w.status.ID)
				}
				ph.mu.Lock()
				if ok && len(checked) < jobsChecked {
					checked = append(checked, w.result.body)
					checkedBodies = append(checkedBodies, body)
				}
				ph.mu.Unlock()
				return ok
			}
		}
		path := "/v1/optimize"
		if q.kind == kindSimulate {
			path = "/v1/simulate"
		}
		rec := send(m.h, http.MethodPost, path, body)
		return func() bool {
			r := recorded(rec.Code, rec.Header(), rec.Body.Bytes())
			ph.count(r.cache)
			if detail {
				m.served.put(k, r.body)
			}
			if q.kind == kindSimulate {
				return checkSimulate(ph, q, m.sims[q.target], r)
			}
			if r.code != http.StatusOK || r.cache != "HIT" || !bytes.Equal(r.body, m.want[q.hit]) {
				ph.fail("hit: status %d, X-Cache %q", r.code, r.cache)
				return false
			}
			return true
		}
	})
	ph.keepRetainedHeap()
	ph.serveCounters(before, healthz(m.h))
	m.checkJobsSync(ph, checkedBodies, checked)
	return ph, nil
}

// checkJobsSync compares sampled job results with the synchronous
// /v1/suite answer to the same request from a fresh server: the two must
// be byte-identical.
func (m *serveMixed) checkJobsSync(ph *phase, bodies, results [][]byte) {
	if len(bodies) == 0 {
		return
	}
	srv, err := serve.New(serve.Options{})
	if err != nil {
		ph.failN(len(bodies), "job check: %v", err)
		return
	}
	defer srv.Close()
	for i, body := range bodies {
		var req struct {
			Suite json.RawMessage `json:"suite"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			ph.failN(1, "job check: %v", err)
			continue
		}
		rec := send(srv.Handler(), http.MethodPost, "/v1/suite", req.Suite)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), results[i]) {
			ph.failN(1, "job result differs from the synchronous /v1/suite answer (status %d)", rec.Code)
		}
	}
}

// jobTimes reads a finished job's queue wait and run time from its
// status.
func (m *serveMixed) jobTimes(ph *phase, id string) {
	var st jobStatus
	rec := send(m.h, http.MethodGet, "/v1/jobs/"+id, nil)
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		return
	}
	ph.note("jobs.queue_wait_ms", st.StartedAt.Sub(st.CreatedAt).Seconds()*1e3)
	ph.note("jobs.run_ms", st.FinishedAt.Sub(st.StartedAt).Seconds()*1e3)
}

func (m *serveMixed) replay(_ context.Context, d time.Duration, r replayer) (*phase, error) {
	rep, err := newServeReplica()
	if err != nil {
		return nil, err
	}
	defer rep.close()
	warm := replayer{tr: newTracer(), st: &replayStats{}}
	for _, req := range m.hits {
		if _, _, err := rep.optimize(warm, noParent, -1, spellOptimize(req, 0)); err != nil {
			return nil, err
		}
	}
	ph := newPhase()
	sched, dues := m.schedule(d)
	ph.kinds = make([]kind, len(sched))
	ph.loopRun = openLoop(mixedWorkers, dues, func(k int) func() bool {
		q := sched[k]
		ph.kinds[k] = q.kind
		body := m.body(q)
		var seed int64
		if q.kind == kindJob {
			seed = m.jobCellSeed(k)
		}
		op := int64(k)
		root := r.tr.begin(rootSpan, noParent, op)
		var data []byte
		var hit bool
		var err error
		switch q.kind {
		case kindHit:
			data, hit, err = rep.optimize(r, root, op, body)
		case kindSimulate:
			data, err = rep.simulate(r, root, op, body)
		case kindJob:
			data, err = rep.job(r, root, op, body, seed)
		}
		r.tr.end(root)
		return func() bool {
			ok := err == nil && m.served.matches(k, data)
			if q.kind == kindHit {
				ok = ok && hit && bytes.Equal(data, m.want[q.hit])
			}
			if !ok {
				r.st.mismatches.Add(1)
				ph.fail("%s replay %d: err=%v", q.kind, k, err)
			}
			return ok
		}
	})
	ph.replica = rep
	return ph, nil
}

// jobCellSeed is the simulation seed the program reported for job k's
// cell in the untraced phase.
func (m *serveMixed) jobCellSeed(k int) int64 {
	m.mu.Lock()
	body := m.jobResults[k]
	m.mu.Unlock()
	var rep edmac.SuiteReport
	if json.Unmarshal(body, &rep) != nil || len(rep.Cells) != 1 {
		return 0
	}
	return cellSeed(rep.Cells[0])
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/jobs"
)

// jobsStates is the fixed state label set the metrics iterate.
func jobsStates() []jobs.State { return jobs.States() }

// jobSubmitRequest is the wire form of POST /v1/jobs: exactly one of
// the three payloads, each the same document its synchronous endpoint
// accepts — a job is a deferred sync request, nothing more.
type jobSubmitRequest struct {
	Optimize *edmac.OptimizeRequest `json:"optimize,omitempty"`
	Simulate *edmac.SimulateRequest `json:"simulate,omitempty"`
	Suite    *suiteRequest          `json:"suite,omitempty"`
}

// jobLinks are the follow-up URLs a submission (and every status body)
// carries, so clients never build job paths by hand.
type jobLinks struct {
	Status string `json:"status"`
	Result string `json:"result"`
	Events string `json:"events"`
}

// jobProgress is the done/total counter pair.
type jobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
}

// jobStatusBody is the wire form of a job's externally visible state —
// the 202 submission response, GET status, DELETE confirmation and the
// not-yet-finished result response all share it.
type jobStatusBody struct {
	ID         string        `json:"id"`
	Kind       string        `json:"kind"`
	State      jobs.State    `json:"state"`
	Progress   jobProgress   `json:"progress"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  time.Time     `json:"started_at,omitzero"`
	FinishedAt time.Time     `json:"finished_at,omitzero"`
	Error      *errorPayload `json:"error,omitempty"`
	Links      jobLinks      `json:"links"`
}

// jobStatusOf renders a job's snapshot for the wire. Failures carry
// the same stable code the synchronous endpoint would have answered
// with, so a client's error handling is one switch either way.
func jobStatusOf(j *jobs.Job) jobStatusBody {
	snap := j.Snapshot()
	body := jobStatusBody{
		ID: snap.ID, Kind: snap.Kind, State: snap.State,
		Progress:  jobProgress{Done: snap.Done, Total: snap.Total},
		CreatedAt: snap.Created, StartedAt: snap.Started, FinishedAt: snap.Finished,
		Links: jobLinks{
			Status: "/v1/jobs/" + snap.ID,
			Result: "/v1/jobs/" + snap.ID + "/result",
			Events: "/v1/jobs/" + snap.ID + "/events",
		},
	}
	if snap.Err != "" {
		code := codeInternal
		if _, err, ok := j.Result(); ok && err != nil {
			_, code = errorStatus(err)
		}
		body.Error = &errorPayload{Code: code, Message: snap.Err}
	}
	return body
}

// handleJobSubmit admits one async request: rate limit, decode,
// response-cache short-circuit (a hit becomes a born-done job — still
// fetchable by ID like any other), then queue admission. The run
// function is the same prepared compute the synchronous handler would
// have executed, storing the same marshalled bytes in the same cache —
// which is what makes the fetched result byte-identical to the sync
// response.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		ok, wait := s.limiter.allow(tenantKey(r))
		if !ok {
			secs := int(wait/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeCoded(w, http.StatusTooManyRequests, codeRateLimited,
				fmt.Sprintf("tenant submission budget exhausted; retry in %ds", secs))
			return
		}
	}
	var req jobSubmitRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, err)
		return
	}
	var p prepared
	n := 0
	if req.Optimize != nil {
		p, n = s.prepareOptimize(*req.Optimize), n+1
	}
	if req.Simulate != nil {
		p, n = s.prepareSimulate(*req.Simulate), n+1
	}
	if req.Suite != nil {
		sp, err := s.prepareSuite(*req.Suite)
		if err != nil {
			writeError(w, err)
			return
		}
		p, n = sp, n+1
	}
	if n != 1 {
		writeCoded(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("request body: exactly one of optimize, simulate or suite required (got %d)", n))
		return
	}

	if p.key != "" {
		if body, ok := s.cache.Get(p.key); ok {
			j, err := s.jobs.Complete(p.kind, p.total, body.([]byte))
			if err != nil {
				writeError(w, err)
				return
			}
			w.Header().Set("X-Cache", "HIT")
			writeJSON(w, http.StatusAccepted, jobStatusOf(j))
			return
		}
	}
	compute, key, total := p.compute, p.key, p.total
	j, err := s.jobs.Submit(p.kind, p.total, func(ctx context.Context, j *jobs.Job) (any, error) {
		v, err := compute(ctx, func(cell edmac.SuiteCell) { j.Advance("cell", cell) })
		if err != nil {
			return nil, err
		}
		if total == 1 {
			// Single-unit kinds (optimize, simulate) have no per-cell
			// stream; tick the one unit so progress reads 1/1.
			j.Advance("", nil)
		}
		data, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode result: %w", err)
		}
		data = append(data, '\n')
		if key != "" {
			s.cache.Add(key, data)
		}
		return data, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", "MISS")
	writeJSON(w, http.StatusAccepted, jobStatusOf(j))
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeCoded(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, jobStatusOf(j))
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	out := make([]jobStatusBody, 0, len(snaps))
	for _, snap := range snaps {
		// Re-fetch by ID: a job GC'd between List and here just drops out.
		if j, ok := s.jobs.Get(snap.ID); ok {
			out = append(out, jobStatusOf(j))
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobStatusBody `json:"jobs"`
	}{out})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Cancel(id)
	if !ok {
		writeCoded(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, jobStatusOf(j))
}

// handleJobResult serves the finished payload — the bytes the run
// function stored, i.e. exactly what the synchronous endpoint wrote.
// Unfinished jobs answer 202 with the status body and Retry-After;
// failed jobs answer the same enveloped error the sync call would
// have; cancelled jobs are 410.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	result, err, done := j.Result()
	if !done {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, jobStatusOf(j))
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	// Every job in the store holds bytes: handleJobSubmit's run function
	// returns the marshalled response, a born-done cache hit stores the
	// cached body, and a reloaded spill reads its result file back.
	writeBody(w, result.([]byte))
}

// handleJobEvents streams the job's event log as NDJSON — replay from
// ?from (default 0), then follow live until the terminal event. The
// stream is NDJSON regardless of Accept (there is no other
// representation); an x-ndjson Accept header is simply honored.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeCoded(w, http.StatusBadRequest, codeInvalidRequest, fmt.Sprintf("from: %q is not a non-negative integer", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	// Events returns nil once the terminal event is delivered, or the
	// context's error when the client walks away — either way the
	// stream just ends.
	j.Events(r.Context(), from, func(ev jobs.Event) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

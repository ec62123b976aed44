package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/edmac-project/edmac/internal/jobs"
)

// smallSuite is a fast two-cell matrix used throughout the job tests.
const smallSuite = `{"scenarios":["ring-baseline"],"protocols":["xmac","lmac"],"options":{"duration":40,"seed":1}}`

// longSuite takes minutes if nothing cancels it — the workload for
// cancel/queue-full tests.
const longSuite = `{"scenarios":["ring-baseline"],"protocols":["xmac"],"options":{"duration":1000000,"seed":1}}`

func doReq(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// pollJob polls the status endpoint until the predicate holds or the
// deadline passes, returning the last status body.
func pollJob(t *testing.T, base, id string, ok func(jobStatusBody) bool) jobStatusBody {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := doReq(t, "GET", base+"/v1/jobs/"+id, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job status: %d (%s)", resp.StatusCode, data)
		}
		var st jobStatusBody
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode status: %v in %s", err, data)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the wanted state; last: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitJob(t *testing.T, base, body string) jobStatusBody {
	t.Helper()
	resp, data := doReq(t, "POST", base+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s), want 202", resp.StatusCode, data)
	}
	var st jobStatusBody
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		t.Fatalf("submit body: %s (err %v)", data, err)
	}
	return st
}

// TestErrorEnvelopeTable pins the envelope contract: every failure, on
// every kind of route, is {"error":{"code","message"}} with the stable
// code — wrong paths, wrong methods, bad bodies, missing jobs alike.
func TestErrorEnvelopeTable(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, tc := range map[string]struct {
		method, path, body string
		status             int
		code               string
	}{
		"unknown path":        {"GET", "/v1/nope", "", 404, "not_found"},
		"wrong method GET":    {"GET", "/v1/optimize", "", 405, "method_not_allowed"},
		"wrong method POST":   {"POST", "/healthz", "{}", 405, "method_not_allowed"},
		"wrong method PUT":    {"PUT", "/v1/jobs", "{}", 405, "method_not_allowed"},
		"wrong method DELETE": {"DELETE", "/v1/suite", "", 405, "method_not_allowed"},
		"malformed json":      {"POST", "/v1/optimize", `{"protocol":`, 400, "invalid_request"},
		"unknown field":       {"POST", "/v1/simulate", `{"proto":"xmac"}`, 400, "invalid_request"},
		"unknown scenario":    {"POST", "/v1/suite", `{"scenarios":["nope"]}`, 400, "invalid_request"},
		"infeasible":          {"POST", "/v1/optimize", `{"protocol":"lmac","requirements":{"energy_budget":0.01,"max_delay":6}}`, 422, "infeasible"},
		"empty job submit":    {"POST", "/v1/jobs", `{}`, 400, "invalid_request"},
		"two job payloads":    {"POST", "/v1/jobs", `{"optimize":{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}},"suite":` + smallSuite + `}`, 400, "invalid_request"},
		"job not found":       {"GET", "/v1/jobs/deadbeefdeadbeef", "", 404, "not_found"},
		"result not found":    {"GET", "/v1/jobs/deadbeefdeadbeef/result", "", 404, "not_found"},
		"events not found":    {"GET", "/v1/jobs/deadbeefdeadbeef/events", "", 404, "not_found"},
		"cancel not found":    {"DELETE", "/v1/jobs/deadbeefdeadbeef", "", 404, "not_found"},
		"bad events from":     {"GET", "/v1/jobs/deadbeefdeadbeef/events?from=x", "", 404, "not_found"},
	} {
		resp, data := doReq(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d (%s), want %d", name, resp.StatusCode, data, tc.status)
			continue
		}
		if code, _ := decodeEnvelope(t, data); code != tc.code {
			t.Errorf("%s: code = %q, want %q", name, code, tc.code)
		}
	}
}

// TestMethodNotAllowedAllowHeader pins the Allow header per route.
func TestMethodNotAllowedAllowHeader(t *testing.T) {
	ts, _ := newTestServer(t)
	for path, want := range map[string]string{
		"/healthz":      "GET, HEAD",
		"/metrics":      "GET, HEAD",
		"/v1/scenarios": "GET, HEAD",
		"/v1/optimize":  "POST",
		"/v1/simulate":  "POST",
		"/v1/suite":     "POST",
		"/v1/jobs":      "GET, HEAD, POST",
	} {
		resp, data := doReq(t, "PATCH", ts.URL+path, "", nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PATCH %s: status = %d (%s), want 405", path, resp.StatusCode, data)
			continue
		}
		if got := resp.Header.Get("Allow"); got != want {
			t.Errorf("PATCH %s: Allow = %q, want %q", path, got, want)
		}
	}
	// The job item routes carry their own method sets.
	resp, _ := doReq(t, "POST", ts.URL+"/v1/jobs/xyz", "{}", nil)
	if got := resp.Header.Get("Allow"); resp.StatusCode != 405 || got != "DELETE, GET, HEAD" {
		t.Errorf("POST /v1/jobs/{id}: status %d Allow %q", resp.StatusCode, got)
	}
}

// TestHeadRidesOnGet: HEAD answers like GET with the body stripped.
func TestHeadRidesOnGet(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("HEAD /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /healthz: status %d, want 200", resp.StatusCode)
	}
}

// TestSuiteAcceptNDJSON: the Accept header negotiates the stream — no
// query parameter needed.
func TestSuiteAcceptNDJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := doReq(t, "POST", ts.URL+"/v1/suite", smallSuite,
		map[string]string{"Accept": "application/x-ndjson"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines, want 2: %s", len(lines), data)
	}
	// A q-listed Accept with other types still negotiates.
	resp2, _ := doReq(t, "POST", ts.URL+"/v1/suite", smallSuite,
		map[string]string{"Accept": "text/plain, application/x-ndjson;q=0.9"})
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("q-listed Accept: Content-Type = %q", ct)
	}
	// Plain JSON stays the default.
	resp3, _ := doReq(t, "POST", ts.URL+"/v1/suite", smallSuite, nil)
	if ct := resp3.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type = %q", ct)
	}
}

// TestJobSuiteLifecycle is the tentpole acceptance test: submit a suite
// as a job, follow its per-cell progress over the events stream, and
// fetch a result byte-identical to the synchronous endpoint's response
// — including across two independent servers (no shared cache to hide
// behind).
func TestJobSuiteLifecycle(t *testing.T) {
	tsA, _ := newTestServer(t)
	_, syncBytes := postJSON(t, tsA.URL+"/v1/suite", smallSuite)

	tsB, _ := newTestServer(t)
	st := submitJob(t, tsB.URL, `{"suite":`+smallSuite+`}`)
	if st.Kind != "suite" || st.Progress.Total != 2 {
		t.Fatalf("submit status = %+v, want kind suite total 2", st)
	}
	if st.Links.Result != "/v1/jobs/"+st.ID+"/result" {
		t.Fatalf("links = %+v", st.Links)
	}

	final := pollJob(t, tsB.URL, st.ID, func(b jobStatusBody) bool { return b.State.Terminal() })
	if final.State != jobs.Done || final.Progress.Done != 2 {
		t.Fatalf("final status = %+v, want done 2/2", final)
	}

	// The events stream replays the whole history: queued → running →
	// two cell events with payloads → done.
	resp, data := doReq(t, "GET", tsB.URL+"/v1/jobs/"+st.ID+"/events", "",
		map[string]string{"Accept": "application/x-ndjson"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d (%s)", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var evs []jobs.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	cells := 0
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d; log not dense: %+v", i, ev.Seq, evs)
		}
		if ev.Type == "cell" {
			cells++
			if ev.Payload == nil {
				t.Fatalf("cell event without payload: %+v", ev)
			}
		}
	}
	if cells != 2 || len(evs) != 5 {
		t.Fatalf("%d events with %d cells, want 5 with 2: %+v", len(evs), cells, evs)
	}
	if evs[0].State != jobs.Queued || evs[len(evs)-1].State != jobs.Done {
		t.Fatalf("event endpoints wrong: %+v", evs)
	}

	// Resume from an offset.
	_, tail := doReq(t, "GET", tsB.URL+"/v1/jobs/"+st.ID+"/events?from=4", "", nil)
	if n := len(bytes.Split(bytes.TrimSpace(tail), []byte("\n"))); n != 1 {
		t.Fatalf("resumed stream has %d lines, want 1: %s", n, tail)
	}

	// The fetched result is byte-identical to the synchronous response —
	// computed on a different server.
	resultResp, jobBytes := doReq(t, "GET", tsB.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if resultResp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d (%s)", resultResp.StatusCode, jobBytes)
	}
	if !bytes.Equal(jobBytes, syncBytes) {
		t.Fatalf("job result differs from sync response:\njob:  %s\nsync: %s", jobBytes, syncBytes)
	}

	// The job's bytes landed in B's response cache: the synchronous
	// endpoint now answers HIT with the same bytes...
	syncB, syncBBytes := postJSON(t, tsB.URL+"/v1/suite", smallSuite)
	if got := syncB.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("sync after job: X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(syncBBytes, jobBytes) {
		t.Fatal("sync-after-job bytes differ from the job result")
	}
	// ...and a repeat submission is born done (cache short-circuit).
	resp2, data2 := doReq(t, "POST", tsB.URL+"/v1/jobs", `{"suite":`+smallSuite+`}`, nil)
	if resp2.StatusCode != http.StatusAccepted || resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("repeat submit: status %d X-Cache %q (%s)", resp2.StatusCode, resp2.Header.Get("X-Cache"), data2)
	}
	var st2 jobStatusBody
	if err := json.Unmarshal(data2, &st2); err != nil || st2.State != jobs.Done {
		t.Fatalf("repeat submit not born done: %s", data2)
	}

	// The listing knows both jobs.
	_, listData := doReq(t, "GET", tsB.URL+"/v1/jobs", "", nil)
	var list struct {
		Jobs []jobStatusBody `json:"jobs"`
	}
	if err := json.Unmarshal(listData, &list); err != nil || len(list.Jobs) != 2 {
		t.Fatalf("list = %s (err %v), want 2 jobs", listData, err)
	}
}

// TestJobOptimizeAndSimulate: the other two kinds round-trip too.
func TestJobOptimizeAndSimulate(t *testing.T) {
	ts, _ := newTestServer(t)
	for kind, payload := range map[string]string{
		"optimize": `{"optimize":{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}}}`,
		"simulate": `{"simulate":{"protocol":"xmac","scenario_name":"ring-baseline","params":[0.25],"options":{"duration":60,"seed":7}}}`,
	} {
		st := submitJob(t, ts.URL, payload)
		if st.Kind != kind {
			t.Fatalf("kind = %q, want %q", st.Kind, kind)
		}
		final := pollJob(t, ts.URL, st.ID, func(b jobStatusBody) bool { return b.State.Terminal() })
		if final.State != jobs.Done || final.Progress.Done != 1 || final.Progress.Total != 1 {
			t.Fatalf("%s final = %+v, want done 1/1", kind, final)
		}
		resp, data := doReq(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
		if resp.StatusCode != http.StatusOK || len(data) == 0 {
			t.Fatalf("%s result: status %d (%s)", kind, resp.StatusCode, data)
		}
	}
}

// TestJobFailureCarriesCode: a job that fails keeps the sync error
// contract — the result answers the same status and stable code the
// synchronous endpoint would have.
func TestJobFailureCarriesCode(t *testing.T) {
	ts, _ := newTestServer(t)
	st := submitJob(t, ts.URL, `{"optimize":{"protocol":"lmac","requirements":{"energy_budget":0.01,"max_delay":6}}}`)
	final := pollJob(t, ts.URL, st.ID, func(b jobStatusBody) bool { return b.State.Terminal() })
	if final.State != jobs.Failed || final.Error == nil || final.Error.Code != "infeasible" {
		t.Fatalf("final = %+v, want failed/infeasible", final)
	}
	resp, data := doReq(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("result status = %d (%s), want 422", resp.StatusCode, data)
	}
	if code, _ := decodeEnvelope(t, data); code != "infeasible" {
		t.Fatalf("result code = %q, want infeasible", code)
	}
}

// TestJobCancelHTTP: DELETE cancels a running job; its result becomes
// the 410/cancelled envelope.
func TestJobCancelHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	st := submitJob(t, ts.URL, `{"suite":`+longSuite+`}`)
	pollJob(t, ts.URL, st.ID, func(b jobStatusBody) bool { return b.State == jobs.Running })

	// While running, the result endpoint defers politely.
	resp, data := doReq(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("pending result: status %d Retry-After %q (%s)", resp.StatusCode, resp.Header.Get("Retry-After"), data)
	}

	start := time.Now()
	resp, data = doReq(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d (%s)", resp.StatusCode, data)
	}
	final := pollJob(t, ts.URL, st.ID, func(b jobStatusBody) bool { return b.State.Terminal() })
	if final.State != jobs.Cancelled {
		t.Fatalf("state after cancel = %q, want cancelled", final.State)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %s; the run context was not honored", elapsed)
	}
	resp, data = doReq(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result: status %d (%s), want 410", resp.StatusCode, data)
	}
	if code, _ := decodeEnvelope(t, data); code != "cancelled" {
		t.Fatalf("cancelled result code = %q", code)
	}
}

// TestJobQueueFullHTTP: admission control over HTTP — a full queue
// answers 429 queue_full with Retry-After, and capacity freed by
// cancellation re-admits.
func TestJobQueueFullHTTP(t *testing.T) {
	s, err := New(Options{JobQueue: 1, JobWorkers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Wedge the single worker, then fill the depth-1 queue.
	running := submitJob(t, ts.URL, `{"suite":`+longSuite+`}`)
	pollJob(t, ts.URL, running.ID, func(b jobStatusBody) bool { return b.State == jobs.Running })
	queued := submitJob(t, ts.URL, `{"suite":`+longSuite+`}`)

	resp, data := doReq(t, "POST", ts.URL+"/v1/jobs", `{"suite":`+longSuite+`}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if code, _ := decodeEnvelope(t, data); code != "queue_full" {
		t.Fatalf("overflow code = %q, want queue_full", code)
	}

	// Cancel both; the queue drains and admission resumes.
	doReq(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, "", nil)
	doReq(t, "DELETE", ts.URL+"/v1/jobs/"+running.ID, "", nil)
	pollJob(t, ts.URL, running.ID, func(b jobStatusBody) bool { return b.State.Terminal() })
	st := submitJob(t, ts.URL, `{"suite":`+smallSuite+`}`)
	pollJob(t, ts.URL, st.ID, func(b jobStatusBody) bool { return b.State == jobs.Done })
}

// TestRateLimitPerTenant: each X-Tenant has its own token bucket.
func TestRateLimitPerTenant(t *testing.T) {
	s, err := New(Options{RateLimit: 0.001, RateBurst: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	submit := func(tenant string) (*http.Response, []byte) {
		return doReq(t, "POST", ts.URL+"/v1/jobs",
			`{"optimize":{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}}}`,
			map[string]string{"X-Tenant": tenant})
	}
	for i := 0; i < 2; i++ {
		if resp, data := submit("alice"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alice submit %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	resp, data := submit("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over budget: status %d (%s), want 429", resp.StatusCode, data)
	}
	if code, _ := decodeEnvelope(t, data); code != "rate_limited" {
		t.Fatalf("rate-limit code = %q", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limit 429 without Retry-After")
	}
	// A different tenant is unaffected.
	if resp, data := submit("bob"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit: status %d (%s)", resp.StatusCode, data)
	}
}

// TestMetricsEndpoint: the exposition carries every promised family.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	doReq(t, "GET", ts.URL+"/healthz", "", nil)
	postJSON(t, ts.URL+"/v1/optimize", `{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}}`)
	postJSON(t, ts.URL+"/v1/optimize", `{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}}`)
	st := submitJob(t, ts.URL, `{"suite":`+smallSuite+`}`)
	pollJob(t, ts.URL, st.ID, func(b jobStatusBody) bool { return b.State.Terminal() })

	resp, data := doReq(t, "GET", ts.URL+"/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		`edserve_requests_total{endpoint="/healthz",code="200"} 1`,
		`edserve_requests_total{endpoint="/v1/optimize",code="200"} 2`,
		`edserve_request_duration_seconds_count{endpoint="/v1/optimize",code="200"} 2`,
		`edserve_jobs_queue_depth 0`,
		`edserve_jobs{state="done"} 1`,
		`edserve_jobs{state="queued"} 0`,
		`edserve_response_cache_hits_total 1`,
		`edserve_response_cache_misses_total`,
		`edserve_response_cache_coalesced_total 0`,
		`edserve_panics_recovered_total 0`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
	// The response cache is the only cache on the request path.
	if strings.Contains(string(data), "edserve_result_cache") {
		t.Errorf("metrics still export the client result cache:\n%s", data)
	}
}

// TestPprofOptIn: the profile mux only exists behind the flag.
func TestPprofOptIn(t *testing.T) {
	off, _ := newTestServer(t)
	resp, data := doReq(t, "GET", off.URL+"/debug/pprof/cmdline", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: status %d (%s), want 404", resp.StatusCode, data)
	}
	if code, _ := decodeEnvelope(t, data); code != "not_found" {
		t.Fatalf("pprof-off code = %q", code)
	}

	s, err := New(Options{EnablePprof: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	resp, _ = doReq(t, "GET", ts.URL+"/debug/pprof/cmdline", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag: status %d, want 200", resp.StatusCode)
	}
}

// TestJobSpillSurvivesRestart: a finished job's result is fetchable,
// byte-identical, from a fresh server over the same spill directory.
func TestJobSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{JobSpillDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st := submitJob(t, ts1.URL, `{"suite":`+smallSuite+`}`)
	pollJob(t, ts1.URL, st.ID, func(b jobStatusBody) bool { return b.State == jobs.Done })
	_, want := doReq(t, "GET", ts1.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	ts1.Close()
	s1.Close()

	s2, err := New(Options{JobSpillDir: dir})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	resp, got := doReq(t, "GET", ts2.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored result: status %d (%s)", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored result differs:\nwas: %s\nnow: %s", want, got)
	}
}

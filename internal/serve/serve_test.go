package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	edmac "github.com/edmac-project/edmac"
)

// newTestServer starts the service on an httptest listener and returns
// it with its backing Server for counter assertions.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

// decodeEnvelope parses the uniform error envelope, failing the test if
// the body is any other shape.
func decodeEnvelope(t *testing.T, data []byte) (code, message string) {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("body is not the error envelope: %s", data)
	}
	return e.Error.Code, e.Error.Message
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || string(body["status"]) != `"ok"` {
		t.Fatalf("body = %s, err %v", body, err)
	}
	// The response cache is the only cache the body reports.
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "jobs jobs_queue_depth panics_recovered response_cache status"; got != want {
		t.Fatalf("healthz fields = %s, want %s", got, want)
	}
}

func TestScenariosListsRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatalf("GET /v1/scenarios: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Scenarios []struct {
			Name     string `json:"name"`
			Topology string `json:"topology"`
			Channel  string `json:"channel"`
		} `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(body.Scenarios) != len(edmac.BuiltinScenarios()) {
		t.Fatalf("%d scenarios, want %d", len(body.Scenarios), len(edmac.BuiltinScenarios()))
	}
	found := false
	for _, sc := range body.Scenarios {
		if sc.Name == "ring-lossy" && sc.Channel == "bernoulli" {
			found = true
		}
	}
	if !found {
		t.Fatal("ring-lossy/bernoulli missing from the registry listing")
	}
}

// TestOptimizeCached is the acceptance gate: a repeated identical
// optimize request must be served from the LRU response cache,
// observable in both the X-Cache header and the hit counter — and
// "identical" means canonically identical, whatever the field order or
// whitespace of the wire JSON.
func TestOptimizeCached(t *testing.T) {
	ts, s := newTestServer(t)
	url := ts.URL + "/v1/optimize"
	body := `{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}}`
	// Same request, different field order and spacing.
	reordered := `{
		"requirements": {"max_delay": 6, "energy_budget": 0.06},
		"protocol": "xmac"
	}`

	resp1, data1 := postJSON(t, url, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	var rep edmac.OptimizeReport
	if err := json.Unmarshal(data1, &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if len(rep.Result.Bargain.Params) == 0 || rep.Result.Bargain.Energy <= 0 {
		t.Fatalf("degenerate bargain in response: %+v", rep.Result.Bargain)
	}

	resp2, data2 := postJSON(t, url, reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("cached response differs from the computed one")
	}
	stats := s.CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", stats)
	}
	// The response cache is the only cache on the request path: the
	// server's client keeps no result cache behind it.
	if got := s.cli.CacheStats(); got != (edmac.CacheStats{}) {
		t.Fatalf("client result cache stats = %+v, want none", got)
	}
}

func TestOptimizeInfeasibleIs422(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/optimize",
		`{"protocol":"lmac","requirements":{"energy_budget":0.01,"max_delay":6}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s), want 422", resp.StatusCode, data)
	}
	if code, _ := decodeEnvelope(t, data); code != "infeasible" {
		t.Fatalf("error code = %q, want infeasible", code)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, tc := range map[string]struct{ url, body string }{
		"malformed json":   {"/v1/optimize", `{"protocol":`},
		"unknown field":    {"/v1/optimize", `{"protocol":"xmac","reqs":{}}`},
		"unknown protocol": {"/v1/optimize", `{"protocol":"smac","requirements":{"energy_budget":0.06,"max_delay":6}}`},
		"unknown scenario": {"/v1/suite", `{"scenarios":["nope"],"protocols":["xmac"]}`},
		"two deployments": {"/v1/simulate",
			`{"protocol":"xmac","scenario_name":"ring-baseline","scenario":{"depth":3,"density":4,"sample_interval":120,"window":60,"payload":32,"radio":"cc2420"},"params":[0.25]}`},
	} {
		resp, data := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
}

func TestSimulateBuiltinScenario(t *testing.T) {
	ts, s := newTestServer(t)
	body := `{"protocol":"xmac","scenario_name":"ring-baseline","params":[0.25],"options":{"duration":60,"seed":7}}`
	resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var rep struct {
		Sim struct {
			Protocol  string  `json:"protocol"`
			Seed      int64   `json:"seed"`
			Duration  float64 `json:"duration"`
			Generated int     `json:"generated"`
		} `json:"sim"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode: %v in %s", err, data)
	}
	if rep.Sim.Protocol != "xmac" || rep.Sim.Seed != 7 || rep.Sim.Duration != 60 {
		t.Fatalf("echoed config wrong: %+v", rep.Sim)
	}
	// Simulations cache whole responses too.
	resp2, _ := postJSON(t, ts.URL+"/v1/simulate", body)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("repeat simulate X-Cache = %q, want HIT", got)
	}
	if s.CacheStats().Hits == 0 {
		t.Fatal("hit counter did not move")
	}
}

// TestSimulateBoundsLMACFrame: /v1/simulate refuses an LMAC frame with
// 400 invalid_request, on the ring path and on the scenario path alike,
// when it has more slots than the model's 128-slot maximum (every
// simulated LMAC node keeps tables with one entry per slot) or a slot
// strictly shorter than the model's slot-length minimum for the
// deployment's radio and payload (control + CCA + data + turnaround,
// below which nothing can be delivered). It runs a frame at the maximum
// and a slot at the minimum.
func TestSimulateBoundsLMACFrame(t *testing.T) {
	ts, _ := newTestServer(t)
	ring := func(radio string, payload int) string {
		return fmt.Sprintf(`"scenario":{"depth":3,"density":4,"sample_interval":120,"window":60,"payload":%d,"radio":%q}`, payload, radio)
	}
	for _, d := range []struct {
		name, deployment string
		// minSlot is the slot-length minimum for the deployment's radio
		// and payload, below is a microsecond less.
		minSlot, below string
	}{
		{"ring cc2420/32", ring("cc2420", 32), "0.002464", "0.002463"},
		{"ring cc1101/32", ring("cc1101", 32), "0.002672", "0.002671"},
		{"ring cc1101/48", ring("cc1101", 48), "0.003184", "0.003183"},
		{"scenario ring-baseline", `"scenario_name":"ring-baseline"`, "0.002464", "0.002463"},     // cc2420, 32 bytes
		{"scenario disk-meadow", `"scenario_name":"disk-meadow"`, "0.002672", "0.002671"},         // cc1101, 32 bytes
		{"scenario tunnel-sentinel", `"scenario_name":"tunnel-sentinel"`, "0.003184", "0.003183"}, // cc1101, 48 bytes
	} {
		for _, tc := range []struct {
			params string
			status int
		}{
			{"20000,0.05", http.StatusBadRequest},
			{"128,0.05", http.StatusOK},
			{"128," + d.below, http.StatusBadRequest},
			{"128," + d.minSlot, http.StatusOK},
		} {
			body := fmt.Sprintf(`{"protocol":"lmac",%s,"params":[%s],"options":{"duration":1,"seed":1}}`, d.deployment, tc.params)
			resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
			if resp.StatusCode != tc.status {
				t.Errorf("%s, params [%s]: status = %d (%s), want %d", d.name, tc.params, resp.StatusCode, data, tc.status)
				continue
			}
			if tc.status != http.StatusOK {
				if code, _ := decodeEnvelope(t, data); code != "invalid_request" {
					t.Errorf("%s, params [%s]: error code = %q, want invalid_request", d.name, tc.params, code)
				}
			}
		}
	}
}

// TestSimulateValidateNaNScrubbed proves a run with unusable delay
// statistics (nothing delivered at a near-zero rate) still encodes:
// the NaN fields are omitted, not 500s.
func TestSimulateValidateNaNScrubbed(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"protocol":"xmac","scenario":{"depth":3,"density":4,"sample_interval":1e9,"window":60,"payload":32,"radio":"cc2420"},"params":[0.25],"options":{"duration":30},"validate":true}`
	resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if bytes.Contains(data, []byte("NaN")) {
		t.Fatalf("NaN leaked into response: %s", data)
	}
	var rep struct {
		Sim struct {
			Generated int      `json:"generated"`
			MeanDelay *float64 `json:"mean_delay"`
		} `json:"sim"`
		Analytic *struct {
			Energy     float64  `json:"energy"`
			DelayRatio *float64 `json:"delay_ratio"`
		} `json:"analytic"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Sim.Generated != 0 || rep.Sim.MeanDelay != nil {
		t.Fatalf("idle run not as expected: %s", data)
	}
	if rep.Analytic == nil || rep.Analytic.Energy <= 0 || rep.Analytic.DelayRatio != nil {
		t.Fatalf("analytic check wrong: %s", data)
	}
}

func TestSuiteEndpoint(t *testing.T) {
	ts, s := newTestServer(t)
	body := `{"scenarios":["ring-baseline"],"protocols":["xmac"],"options":{"duration":40,"seed":1}}`
	resp, data := postJSON(t, ts.URL+"/v1/suite", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var rep edmac.SuiteReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Scenario != "ring-baseline" || rep.Cells[0].Protocol != edmac.XMAC {
		t.Fatalf("unexpected cells: %+v", rep.Cells)
	}
	if rep.Cells[0].Err != "" {
		t.Fatalf("cell failed: %s", rep.Cells[0].Err)
	}
	// Identical suite requests hit the cache.
	resp2, data2 := postJSON(t, ts.URL+"/v1/suite", body)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("repeat suite X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("cached suite response differs")
	}
	if s.CacheStats().Hits == 0 {
		t.Fatal("hit counter did not move")
	}
}

func TestSuiteStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"scenarios":["ring-baseline"],"protocols":["xmac","lmac"],"options":{"duration":40,"seed":1}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/suite", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	seen := map[edmac.Protocol]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var cell edmac.SuiteCell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if cell.Err != "" {
			t.Fatalf("cell error: %s", cell.Err)
		}
		seen[cell.Protocol] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !seen[edmac.XMAC] || !seen[edmac.LMAC] {
		t.Fatalf("cells missing from stream: %v", seen)
	}
}

// TestColdMissCoalescing: concurrent identical requests on a cold
// cache cost one computation — exactly one MISS leader, everyone else
// COALESCED (or HIT if they arrived after the cache filled), all with
// identical bytes.
func TestColdMissCoalescing(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"protocol":"xmac","scenario":{"depth":4,"density":5,"sample_interval":60,"window":60,"payload":32,"radio":"cc2420"},"params":[0.2],"options":{"duration":2000,"seed":11}}`
	const n = 6
	type result struct {
		cacheHdr string
		status   int
		data     []byte
		err      error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				results[i].err = err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = result{resp.Header.Get("X-Cache"), resp.StatusCode, data, err}
		}(i)
	}
	wg.Wait()
	misses := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.data)
		}
		switch r.cacheHdr {
		case "MISS":
			misses++
		case "COALESCED", "HIT":
		default:
			t.Fatalf("request %d: X-Cache = %q", i, r.cacheHdr)
		}
		if !bytes.Equal(r.data, results[0].data) {
			t.Fatalf("request %d: response bytes diverge", i)
		}
	}
	if misses != 1 {
		t.Fatalf("%d MISS leaders, want exactly 1", misses)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	ts, _ := newTestServer(t)
	big := append([]byte(`{"protocol":"`), bytes.Repeat([]byte("x"), 2<<20)...)
	big = append(big, []byte(`"}`)...)
	resp, data := postJSON(t, ts.URL+"/v1/optimize", string(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", resp.StatusCode, data)
	}
}

// TestPanicRecovery: a panicking handler answers a 500 JSON error and
// bumps the counter; the process (and the server) keep serving.
func TestPanicRecovery(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("injected handler bug")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, data)
	}
	if code, _ := decodeEnvelope(t, data); code != "internal" {
		t.Fatalf("panic error code = %q, want internal", code)
	}
	if got := s.PanicsRecovered(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}

	// The server is still alive and /healthz exposes the count.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after panic: %v", err)
	}
	var health struct {
		Status          string `json:"status"`
		PanicsRecovered int64  `json:"panics_recovered"`
	}
	err = json.NewDecoder(resp2.Body).Decode(&health)
	resp2.Body.Close()
	if err != nil || health.Status != "ok" || health.PanicsRecovered != 1 {
		t.Fatalf("healthz after panic = %+v, err %v", health, err)
	}
}

// TestPanickingLeaderReleasesFlight: a cached computation that panics
// must release its flight. A request waiting on it computes afresh
// instead of waiting forever on the dead leader, and its answer is
// cached for the next one.
func TestPanickingLeaderReleasesFlight(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var calls atomic.Int32
	leading := make(chan struct{})
	arrived := make(chan struct{})
	release := make(chan struct{})
	s.mux.HandleFunc("GET /flaky", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Role") == "waiter" {
			close(arrived)
		}
		s.serveCached(w, r, "flaky", func() (any, error) {
			if calls.Add(1) == 1 {
				close(leading)
				<-release
				panic("injected compute bug")
			}
			return map[string]string{"answer": "ok"}, nil
		})
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Bounded, so a request stuck behind a leaked flight fails the test
	// instead of hanging it.
	client := &http.Client{Timeout: 10 * time.Second}
	type answer struct {
		status int
		cache  string
		body   []byte
		err    error
	}
	get := func(role string) answer {
		req, _ := http.NewRequest("GET", ts.URL+"/flaky", nil)
		req.Header.Set("X-Role", role)
		resp, err := client.Do(req)
		if err != nil {
			return answer{err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return answer{resp.StatusCode, resp.Header.Get("X-Cache"), body, err}
	}
	leader, waiter := make(chan answer, 1), make(chan answer, 1)
	go func() { leader <- get("leader") }()
	<-leading
	go func() { waiter <- get("waiter") }()
	<-arrived
	close(release)

	if a := <-leader; a.err != nil || a.status != http.StatusInternalServerError {
		t.Fatalf("panicking leader: status %d, err %v (%s), want 500", a.status, a.err, a.body)
	}
	w := <-waiter
	if w.err != nil || w.status != http.StatusOK || w.cache != "MISS" {
		t.Fatalf("request after the panic: status %d, X-Cache %q, err %v (%s), want 200 MISS", w.status, w.cache, w.err, w.body)
	}
	if h := get("later"); h.err != nil || h.status != http.StatusOK || h.cache != "HIT" || !bytes.Equal(h.body, w.body) {
		t.Fatalf("later request: status %d, X-Cache %q, err %v (%s), want the cached answer", h.status, h.cache, h.err, h.body)
	}
	if got := s.PanicsRecovered(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
}

// TestRequestTimeout: a server-imposed per-request deadline cancels a
// long simulation and answers 503 — distinguishable from the 499 a
// disconnecting client gets.
func TestRequestTimeout(t *testing.T) {
	s, err := New(Options{RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Minutes of simulated traffic if the deadline were ignored.
	body := `{"protocol":"xmac","scenario":{"depth":5,"density":6,"sample_interval":120,"window":60,"payload":50,"radio":"cc2420"},"params":[0.125],"options":{"duration":1000000}}`
	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timed-out request held the handler for %s", elapsed)
	}
	// Quick requests are untouched by the deadline.
	resp2, data2 := postJSON(t, ts.URL+"/v1/optimize",
		`{"protocol":"xmac","requirements":{"energy_budget":0.06,"max_delay":6}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fast request under timeout: status %d (%s)", resp2.StatusCode, data2)
	}
}

// TestInFlightAbortOnDisconnect is the acceptance gate for request
// cancellation: a client that walks away mid-simulation must abort the
// backend's event loop, not leave it running to completion. The
// simulated workload below takes minutes if run fully; the handler
// must return within seconds of the disconnect.
func TestInFlightAbortOnDisconnect(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	handlerDone := make(chan struct{})
	var once sync.Once
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/simulate" {
			once.Do(func() { close(handlerDone) })
		}
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()

	// A dense, long simulation: ~8 wakeups per second per node on 31
	// nodes over 10^6 simulated seconds — far beyond the deadline below
	// if the event loop ignored cancellation.
	body := `{"protocol":"xmac","scenario":{"depth":5,"density":6,"sample_interval":120,"window":60,"payload":50,"radio":"cc2420"},"params":[0.125],"options":{"duration":1000000}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")

	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request unexpectedly completed with status %d", resp.StatusCode)
		}
		errCh <- err
	}()

	// Let the simulation spin up, then walk away.
	time.Sleep(300 * time.Millisecond)
	cancel()

	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}
	select {
	case <-handlerDone:
		// The backend noticed the disconnect and aborted.
	case <-time.After(30 * time.Second):
		t.Fatal("handler still running 30s after client disconnect; in-flight work was not aborted")
	}
}

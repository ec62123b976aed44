package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metrics is the dependency-free request-metrics registry behind
// GET /metrics. It keeps counters and latency sums keyed by
// (endpoint, status code) — both bounded: endpoints are route
// patterns, codes are HTTP statuses — and renders the Prometheus text
// exposition format. No client library: the format is three lines of
// spec, and the ISSUE forbids new dependencies.
type metrics struct {
	mu       sync.Mutex
	requests map[metricKey]*endpointStats
}

type metricKey struct {
	endpoint string
	code     int
}

type endpointStats struct {
	count   int64
	seconds float64
}

func newMetrics() *metrics {
	return &metrics{requests: map[metricKey]*endpointStats{}}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	k := metricKey{endpoint: endpoint, code: code}
	m.mu.Lock()
	st := m.requests[k]
	if st == nil {
		st = &endpointStats{}
		m.requests[k] = st
	}
	st.count++
	st.seconds += d.Seconds()
	m.mu.Unlock()
}

// handleMetrics renders the exposition. Gauges (queue depth, jobs by
// state, cache entries) are sampled at scrape time; counters come from
// the registry and the server's atomic counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	// Requests by endpoint and status, plus the latency summary. Keys
	// are sorted so the output is stable — scrape diffs and tests both
	// appreciate determinism.
	s.metrics.mu.Lock()
	keys := make([]metricKey, 0, len(s.metrics.requests))
	for k := range s.metrics.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	type row struct {
		k metricKey
		v endpointStats
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, *s.metrics.requests[k]})
	}
	s.metrics.mu.Unlock()

	fmt.Fprintln(w, "# HELP edserve_requests_total Completed HTTP requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE edserve_requests_total counter")
	for _, rw := range rows {
		fmt.Fprintf(w, "edserve_requests_total{endpoint=%q,code=%q} %d\n",
			rw.k.endpoint, strconv.Itoa(rw.k.code), rw.v.count)
	}
	fmt.Fprintln(w, "# HELP edserve_request_duration_seconds Wall-clock request latency by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE edserve_request_duration_seconds summary")
	for _, rw := range rows {
		fmt.Fprintf(w, "edserve_request_duration_seconds_sum{endpoint=%q,code=%q} %g\n",
			rw.k.endpoint, strconv.Itoa(rw.k.code), rw.v.seconds)
		fmt.Fprintf(w, "edserve_request_duration_seconds_count{endpoint=%q,code=%q} %d\n",
			rw.k.endpoint, strconv.Itoa(rw.k.code), rw.v.count)
	}

	fmt.Fprintln(w, "# HELP edserve_jobs_queue_depth Jobs admitted but not yet claimed by a worker.")
	fmt.Fprintln(w, "# TYPE edserve_jobs_queue_depth gauge")
	fmt.Fprintf(w, "edserve_jobs_queue_depth %d\n", s.jobs.Depth())

	fmt.Fprintln(w, "# HELP edserve_jobs Known jobs by state.")
	fmt.Fprintln(w, "# TYPE edserve_jobs gauge")
	counts := s.jobs.Counts()
	for _, st := range jobsStates() {
		fmt.Fprintf(w, "edserve_jobs{state=%q} %d\n", string(st), counts[st])
	}

	respHits, respMisses := s.cache.Stats()
	fmt.Fprintln(w, "# HELP edserve_response_cache_hits_total Response-cache hits.")
	fmt.Fprintln(w, "# TYPE edserve_response_cache_hits_total counter")
	fmt.Fprintf(w, "edserve_response_cache_hits_total %d\n", respHits)
	fmt.Fprintln(w, "# HELP edserve_response_cache_misses_total Response-cache misses.")
	fmt.Fprintln(w, "# TYPE edserve_response_cache_misses_total counter")
	fmt.Fprintf(w, "edserve_response_cache_misses_total %d\n", respMisses)
	fmt.Fprintln(w, "# HELP edserve_response_cache_coalesced_total Responses served by waiting on an identical in-flight computation.")
	fmt.Fprintln(w, "# TYPE edserve_response_cache_coalesced_total counter")
	fmt.Fprintf(w, "edserve_response_cache_coalesced_total %d\n", s.coalesced.Load())

	fmt.Fprintln(w, "# HELP edserve_panics_recovered_total Handler panics absorbed into 500 responses.")
	fmt.Fprintln(w, "# TYPE edserve_panics_recovered_total counter")
	fmt.Fprintf(w, "edserve_panics_recovered_total %d\n", s.panics.Load())
}

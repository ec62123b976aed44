// Package serve is the HTTP/JSON service layer over edmac.Client: the
// energy-delay bargaining pipeline as a queryable tradeoff service.
// Clients POST a (scenario, requirements) pair and get the operating
// point back — the request/response shape of the related work's
// utility-energy tradeoff services — with a bounded LRU response cache
// in front of the solvers, so identical requests from many users cost
// one Nelder-Mead solve, not N.
//
// Endpoints (see the README's "Serving edmac" section for payloads):
//
//	GET    /healthz             liveness + cache/jobs statistics
//	GET    /metrics             Prometheus text exposition
//	GET    /v1/scenarios        the builtin scenario registry
//	POST   /v1/optimize         play the game for one protocol
//	POST   /v1/simulate         replay a configuration at packet level
//	POST   /v1/suite            the scenario×protocol matrix (NDJSON
//	                            streaming via Accept: application/x-ndjson)
//	POST   /v1/jobs             submit an async job (202 + ID; 429 when
//	                            the queue refuses admission)
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job status + progress
//	GET    /v1/jobs/{id}/result the finished payload, byte-identical to
//	                            the synchronous endpoint's response
//	GET    /v1/jobs/{id}/events NDJSON progress/cell event stream
//	DELETE /v1/jobs/{id}        cancel the job
//
// Every error, on every route, is the one JSON envelope
// {"error":{"code":"...","message":"..."}} with a stable
// machine-readable code; wrong-method requests answer 405 with an
// Allow header in the same envelope. Every handler threads the request
// context into the client, so a disconnected caller aborts its solve,
// simulation event loop or suite worker-pool feed instead of burning
// the backend. The root handler also hardens the process: a panicking
// handler is recovered into a 500 JSON error (counted, visible in
// /healthz and /metrics), and an optional per-request deadline bounds
// how long any one request may hold a worker. Job submissions pass
// per-tenant token-bucket rate limiting (X-Tenant header, falling back
// to the remote address) before touching the queue.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/jobs"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/lru"
)

// maxBodyBytes bounds request documents; scenario specs are a few KB,
// so a megabyte is generous.
const maxBodyBytes = 1 << 20

// DefaultRateBurst is the token-bucket capacity when rate limiting is
// on and Options leave the burst unset.
const DefaultRateBurst = 5

// Options configure a Server.
type Options struct {
	// Client executes the requests; nil builds a default client. It
	// should not enable WithCache: the response cache is the only cache.
	Client *edmac.Client
	// CacheSize bounds the response cache (entries); values below 1
	// select edmac.DefaultCacheSize.
	CacheSize int
	// RequestTimeout, when positive, bounds every request's context: a
	// solve, simulation or suite that outlives it is cancelled and the
	// request answered 503. Zero imposes no server-side deadline. Job
	// execution is not bound by it — jobs exist precisely so long work
	// outlives its submitting request.
	RequestTimeout time.Duration
	// JobQueue bounds the async tier's admission queue; submissions
	// beyond it answer 429 queue_full. Values below 1 select
	// jobs.DefaultQueue.
	JobQueue int
	// JobWorkers is the number of jobs executed concurrently (each job
	// is internally parallel already); values below 1 select
	// jobs.DefaultWorkers.
	JobWorkers int
	// JobTTL is how long finished jobs are retained for status/result
	// fetches; <= 0 selects jobs.DefaultTTL.
	JobTTL time.Duration
	// JobSpillDir, when set, persists finished job results to disk and
	// reloads them on startup (crash-safe result retention).
	JobSpillDir string
	// RateLimit, when positive, is the per-tenant job-submission budget
	// in submissions per second (token bucket, burst RateBurst). Zero
	// disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity; values below 1 select
	// DefaultRateBurst.
	RateBurst int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in,
	// since profiles expose internals.
	EnablePprof bool
	// Logf, when set, receives one line per completed request.
	Logf func(format string, args ...any)
}

// Server is the HTTP service. Construct with New; the zero value is
// invalid. Safe for concurrent use. Close releases the job workers.
type Server struct {
	cli     *edmac.Client
	cache   *lru.Cache
	jobs    *jobs.Store
	limiter *rateLimiter
	metrics *metrics
	mux     *http.ServeMux
	logf    func(format string, args ...any)
	timeout time.Duration

	// panics counts handler panics absorbed by the recovery middleware —
	// each one is a server bug that answered 500 instead of killing the
	// process; /healthz exposes the count so operators notice.
	panics atomic.Int64
	// coalesced counts responses served by waiting on another request's
	// identical in-flight computation.
	coalesced atomic.Int64

	// flights coalesces concurrent identical cache misses: the first
	// request computes, the rest wait for its response bytes — N users
	// asking the same question cost one solve even before the cache is
	// warm.
	flightMu sync.Mutex
	flights  map[string]*flight
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{} // closed when the leader returns, even by panicking
	data []byte        // the response; nil unless the leader succeeded
	err  error
}

// New builds the service around its client.
func New(o Options) (*Server, error) {
	cli := o.Client
	if cli == nil {
		var err error
		cli, err = edmac.NewClient()
		if err != nil {
			return nil, err
		}
	}
	size := o.CacheSize
	if size < 1 {
		size = edmac.DefaultCacheSize
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	store, err := jobs.New(jobs.Options{
		Queue:    o.JobQueue,
		Workers:  o.JobWorkers,
		TTL:      o.JobTTL,
		SpillDir: o.JobSpillDir,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cli: cli, cache: lru.New(size), jobs: store,
		metrics: newMetrics(),
		mux:     http.NewServeMux(), logf: logf, timeout: o.RequestTimeout,
		flights: map[string]*flight{},
	}
	if o.RateLimit > 0 {
		s.limiter = newRateLimiter(o.RateLimit, o.RateBurst)
	}
	s.route("/healthz", methods{"GET": s.handleHealthz})
	s.route("/metrics", methods{"GET": s.handleMetrics})
	s.route("/v1/scenarios", methods{"GET": s.handleScenarios})
	s.route("/v1/optimize", methods{"POST": s.handleOptimize})
	s.route("/v1/simulate", methods{"POST": s.handleSimulate})
	s.route("/v1/suite", methods{"POST": s.handleSuite})
	s.route("/v1/jobs", methods{"POST": s.handleJobSubmit, "GET": s.handleJobList})
	s.route("/v1/jobs/{id}", methods{"GET": s.handleJobStatus, "DELETE": s.handleJobCancel})
	s.route("/v1/jobs/{id}/result", methods{"GET": s.handleJobResult})
	s.route("/v1/jobs/{id}/events", methods{"GET": s.handleJobEvents})
	if o.EnablePprof {
		s.mountPprof()
	}
	// Everything unrouted answers the enveloped 404 instead of the
	// default plain-text one.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeCoded(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no route for %s", r.URL.Path))
	})
	return s, nil
}

// Close stops the job workers (cancelling running jobs). The HTTP
// handler must not be used afterwards.
func (s *Server) Close() {
	s.jobs.Close()
}

// methods maps HTTP methods onto handlers for one route.
type methods map[string]http.HandlerFunc

// route registers a path pattern with per-method dispatch: a request
// whose method has no handler answers 405 with an Allow header and the
// error envelope — uniformly, on every route. HEAD rides on GET (the
// server strips the body). The pattern doubles as the bounded-
// cardinality endpoint label of the request metrics.
func (s *Server) route(pattern string, m methods) {
	allowed := make([]string, 0, len(m)+1)
	for method := range m {
		allowed = append(allowed, method)
	}
	if _, ok := m["GET"]; ok {
		allowed = append(allowed, "HEAD")
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.endpoint = pattern
		}
		h, ok := m[r.Method]
		if !ok && r.Method == http.MethodHead {
			h, ok = m[http.MethodGet]
		}
		if !ok {
			w.Header().Set("Allow", allow)
			writeCoded(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed on %s (allow: %s)", r.Method, pattern, allow))
			return
		}
		h(w, r)
	})
}

// mountPprof exposes the runtime profiles. The endpoint label is
// collapsed to one value so profile names don't fan out the metrics.
func (s *Server) mountPprof() {
	wrap := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if sw, ok := w.(*statusWriter); ok {
				sw.endpoint = "/debug/pprof"
			}
			h(w, r)
		}
	}
	s.mux.HandleFunc("/debug/pprof/", wrap(pprof.Index))
	s.mux.HandleFunc("/debug/pprof/cmdline", wrap(pprof.Cmdline))
	s.mux.HandleFunc("/debug/pprof/profile", wrap(pprof.Profile))
	s.mux.HandleFunc("/debug/pprof/symbol", wrap(pprof.Symbol))
	s.mux.HandleFunc("/debug/pprof/trace", wrap(pprof.Trace))
}

// Handler returns the service's root handler: panic recovery, the
// optional per-request deadline, request metrics, and the request log.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, endpoint: "other"}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		func() {
			// A handler panic is a server bug, not a reason to die: count
			// it, log the stack, and answer 500 if the status line hasn't
			// gone out yet (mid-stream there is nothing left to salvage —
			// the connection just ends). http.ErrAbortHandler is the
			// sanctioned abort sentinel and keeps its meaning.
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.panics.Add(1)
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if !sw.wrote {
					writeCoded(sw, http.StatusInternalServerError, codeInternal, "internal error")
				}
			}()
			s.mux.ServeHTTP(sw, r)
		}()
		s.metrics.observe(sw.endpoint, sw.status, time.Since(start))
		s.logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	})
}

// PanicsRecovered reports how many handler panics the root handler has
// absorbed since the server was built.
func (s *Server) PanicsRecovered() int64 { return s.panics.Load() }

// CacheStats reports the response cache's lifetime counters — the
// observable the smoke test (and operators) assert cache behaviour on.
func (s *Server) CacheStats() edmac.CacheStats {
	hits, misses := s.cache.Stats()
	return edmac.CacheStats{Hits: hits, Misses: misses, Entries: s.cache.Len()}
}

// statusWriter records the status code for the request log and whether
// anything reached the wire (the panic recovery can only substitute a
// 500 while the response is still unwritten). The matched route sets
// endpoint, which becomes the metrics label.
type statusWriter struct {
	http.ResponseWriter
	status   int
	wrote    bool
	endpoint string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Flush forwards streaming flushes (NDJSON suite cells) to the
// underlying writer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// --- error envelope ---------------------------------------------------

// The stable machine-readable error codes. Every error response on
// every route carries exactly one of these; clients branch on the code,
// never on the message text.
const (
	codeInvalidRequest   = "invalid_request"
	codeInfeasible       = "infeasible"
	codeTimeout          = "timeout"
	codeQueueFull        = "queue_full"
	codeRateLimited      = "rate_limited"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeCancelled        = "cancelled"
	codeClientClosed     = "client_closed"
	codeInternal         = "internal"
)

// errorPayload is the inner error object of the envelope.
type errorPayload struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the uniform error response:
// {"error":{"code":"...","message":"..."}}.
type errorBody struct {
	Error errorPayload `json:"error"`
}

// statusClientClosedRequest is the de-facto (nginx) status for requests
// abandoned by the caller; nothing readable reaches the client, but the
// request log keeps an honest record.
const statusClientClosedRequest = 499

// errorStatus classifies an error into (HTTP status, stable code):
// infeasible games are 422 (a well-formed request whose requirements
// cannot be met), abandoned requests 499, requests that outlived the
// server's own deadline 503 (only the RequestTimeout middleware sets
// one — a disconnecting client surfaces as Canceled, not
// DeadlineExceeded), refused job admissions 429, cancelled jobs 410,
// everything else a 400 — handlers own no state, so residual failures
// are request-induced.
func errorStatus(err error) (int, string) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests, codeQueueFull
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable, codeInternal
	case errors.Is(err, jobs.ErrCancelled):
		return http.StatusGone, codeCancelled
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, codeClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, codeTimeout
	case errors.Is(err, edmac.ErrInfeasible):
		return http.StatusUnprocessableEntity, codeInfeasible
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, codeInvalidRequest
	}
	return http.StatusBadRequest, codeInvalidRequest
}

// writeError maps an error onto the wire in the uniform envelope.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	//edvet:ignore jsonwire code flows from errorStatus, whose returns edvet pins to the code set
	writeCoded(w, status, code, err.Error())
}

// writeCoded writes the error envelope with an explicit status/code.
func writeCoded(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorBody{Error: errorPayload{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Nothing user-induced marshals badly; this is a server bug.
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// decodeStrict parses a request document into req, rejecting unknown
// fields so typos fail loudly (the module-wide spec-parsing
// convention).
func decodeStrict(r *http.Request, req any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// wantsNDJSON is the suite-streaming content negotiation: the Accept
// header names application/x-ndjson.
func wantsNDJSON(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediatype, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mediatype) == "application/x-ndjson" {
			return true
		}
	}
	return false
}

// tenantKey identifies the principal a rate bucket belongs to: the
// X-Tenant header when the caller names itself, the remote host
// otherwise.
func tenantKey(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return "tenant:" + t
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// cacheKey canonicalizes a decoded request: re-marshalling the typed
// struct erases field order, whitespace and null-vs-absent differences,
// so spellings of one request share one response-cache entry.
var cacheKey = jsonwire.CacheKey

// serveCached answers from the response cache or computes, caches and
// answers. An empty key means "uncacheable". Only successful responses
// are cached. Concurrent identical misses coalesce: one request (the
// leader) computes while the rest wait for its bytes, so a cold-cache
// stampede of equal requests costs one solve. The X-Cache header
// reports HIT, MISS (leader) or COALESCED (waiter) on every cacheable
// request.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func() (any, error)) {
	if key == "" {
		s.computeAndWrite(w, "", compute)
		return
	}
	for {
		if body, ok := s.cache.Get(key); ok {
			w.Header().Set("X-Cache", "HIT")
			writeBody(w, body.([]byte))
			return
		}
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			// Someone else is already computing this answer: wait for it
			// (or for our own caller to walk away).
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-r.Context().Done():
				writeError(w, r.Context().Err())
				return
			}
			if f.data == nil {
				// The leader may have left no outcome of its own (it
				// panicked, or its client disconnected mid-solve); retry
				// the loop — the next round finds the cache, a new
				// flight, or makes this request the leader.
				if f.err == nil || errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue
				}
				writeError(w, f.err)
				return
			}
			s.coalesced.Add(1)
			w.Header().Set("X-Cache", "COALESCED")
			writeBody(w, f.data)
			return
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()
		// Released even if compute panics (the root handler recovers
		// it), so later requests for key never wait on a dead leader.
		defer func() {
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(f.done)
		}()

		w.Header().Set("X-Cache", "MISS")
		f.data, f.err = s.computeAndWrite(w, key, compute)
		return
	}
}

// computeAndWrite runs the computation, writes the response (caching
// successes under key when non-empty), and returns what it wrote for
// flight waiters.
func (s *Server) computeAndWrite(w http.ResponseWriter, key string, compute func() (any, error)) ([]byte, error) {
	v, err := compute()
	if err != nil {
		writeError(w, err)
		return nil, err
	}
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed"}}`, http.StatusInternalServerError)
		return nil, err
	}
	data = append(data, '\n')
	if key != "" {
		s.cache.Add(key, data)
	}
	writeBody(w, data)
	return data, nil
}

// writeBody writes a prepared JSON response body.
func writeBody(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// --- prepared requests ------------------------------------------------

// prepared is one executable request, shared verbatim by the
// synchronous handlers and the async job executor: the same compute
// closure and the same cache key, which is what makes a job's fetched
// result byte-identical to the synchronous response and lets the two
// paths share the response cache.
type prepared struct {
	kind  string
	key   string // response-cache key; "" = uncacheable
	total int    // progress denominator (suite: cells, else 1)
	// compute runs the request. observe (nil on synchronous calls)
	// receives every finished suite cell for progress publication.
	compute func(ctx context.Context, observe func(edmac.SuiteCell)) (any, error)
}

func (s *Server) prepareOptimize(req edmac.OptimizeRequest) prepared {
	key, _ := cacheKey("optimize", req)
	return prepared{kind: "optimize", key: key, total: 1,
		compute: func(ctx context.Context, _ func(edmac.SuiteCell)) (any, error) {
			return s.cli.Optimize(ctx, req)
		}}
}

func (s *Server) prepareSimulate(req edmac.SimulateRequest) prepared {
	// Key on the effective request: an absent duration and the explicit
	// default are the same simulation, so they must share a cache entry.
	keyReq := req
	if keyReq.Options.Duration <= 0 {
		keyReq.Options.Duration = edmac.DefaultSimDuration
	}
	key, _ := cacheKey("simulate", keyReq)
	return prepared{kind: "simulate", key: key, total: 1,
		compute: func(ctx context.Context, _ func(edmac.SuiteCell)) (any, error) {
			return s.cli.Simulate(ctx, req)
		}}
}

func (s *Server) prepareSuite(req suiteRequest) (prepared, error) {
	resolved, err := req.resolve()
	if err != nil {
		return prepared{}, err
	}
	// Key on the effective request, not its spelling: the worker count
	// never changes results (the module-wide determinism contract),
	// empty selections mean the full registry / all protocols, and
	// absent options mean their documented defaults — none of those may
	// fragment the cache.
	keyReq := req
	keyReq.Options.Workers = 0
	if keyReq.Options.Duration <= 0 {
		keyReq.Options.Duration = edmac.DefaultSuiteDuration
	}
	if keyReq.Options.EnergyBudget <= 0 {
		keyReq.Options.EnergyBudget = edmac.DefaultEnergyBudget()
	}
	keyReq.Scenarios = make([]string, len(resolved.Scenarios))
	for i, sp := range resolved.Scenarios {
		keyReq.Scenarios[i] = sp.Name()
	}
	keyReq.Protocols = resolved.Protocols
	key, _ := cacheKey("suite", keyReq)
	return prepared{
		kind: "suite", key: key,
		total: len(resolved.Scenarios) * len(resolved.Protocols),
		compute: func(ctx context.Context, observe func(edmac.SuiteCell)) (any, error) {
			if observe == nil {
				return s.cli.Suite(ctx, resolved)
			}
			return s.cli.SuiteObserved(ctx, resolved, func(cell edmac.SuiteCell) error {
				observe(cell)
				return nil
			})
		}}, nil
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status          string             `json:"status"`
		ResponseCache   edmac.CacheStats   `json:"response_cache"`
		PanicsRecovered int64              `json:"panics_recovered"`
		JobsQueueDepth  int                `json:"jobs_queue_depth"`
		Jobs            map[jobs.State]int `json:"jobs"`
	}{"ok", s.CacheStats(), s.PanicsRecovered(), s.jobs.Depth(), s.jobs.Counts()})
}

// scenarioInfo is one registry row of GET /v1/scenarios.
type scenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Topology    string `json:"topology"`
	Traffic     string `json:"traffic"`
	Channel     string `json:"channel"`
	Phased      bool   `json:"phased,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	builtins := edmac.BuiltinScenarios()
	out := make([]scenarioInfo, len(builtins))
	for i, sp := range builtins {
		out[i] = scenarioInfo{
			Name:        sp.Name(),
			Description: sp.Description(),
			Topology:    sp.TopologyKind(),
			Traffic:     sp.TrafficKind(),
			Channel:     sp.ChannelKind(),
			Phased:      sp.Phased(),
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Scenarios []scenarioInfo `json:"scenarios"`
	}{out})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req edmac.OptimizeRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, err)
		return
	}
	p := s.prepareOptimize(req)
	s.serveCached(w, r, p.key, func() (any, error) { return p.compute(r.Context(), nil) })
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req edmac.SimulateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, err)
		return
	}
	p := s.prepareSimulate(req)
	s.serveCached(w, r, p.key, func() (any, error) { return p.compute(r.Context(), nil) })
}

// suiteRequest is the wire form of POST /v1/suite: builtin scenarios
// by name (empty: the whole registry) against a protocol list (empty:
// all five).
type suiteRequest struct {
	Scenarios []string           `json:"scenarios,omitempty"`
	Protocols []edmac.Protocol   `json:"protocols,omitempty"`
	Options   edmac.SuiteOptions `json:"options,omitempty"`
}

// resolve expands the wire request into the client's SuiteRequest.
func (req suiteRequest) resolve() (edmac.SuiteRequest, error) {
	out := edmac.SuiteRequest{Options: req.Options}
	if len(req.Scenarios) == 0 {
		out.Scenarios = edmac.BuiltinScenarios()
	} else {
		for _, name := range req.Scenarios {
			sp, ok := edmac.BuiltinScenario(name)
			if !ok {
				return edmac.SuiteRequest{}, fmt.Errorf("unknown scenario %q (GET /v1/scenarios lists the registry)", name)
			}
			out.Scenarios = append(out.Scenarios, sp)
		}
	}
	out.Protocols = req.Protocols
	if len(out.Protocols) == 0 {
		out.Protocols = edmac.Protocols()
	}
	return out, nil
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var req suiteRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, err)
		return
	}
	p, err := s.prepareSuite(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if wantsNDJSON(r) {
		resolved, _ := req.resolve()
		s.streamSuite(w, r, resolved)
		return
	}
	s.serveCached(w, r, p.key, func() (any, error) { return p.compute(r.Context(), nil) })
}

// streamSuite answers NDJSON-negotiated suite requests: one SuiteCell
// per line, written (and flushed) as each cell finishes — long
// matrices surface progress instead of a minutes-long silence. Streams
// bypass the response cache; a disconnecting client cancels the
// remaining cells through the request context.
func (s *Server) streamSuite(w http.ResponseWriter, r *http.Request, req edmac.SuiteRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", "BYPASS")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// Push the status line out before the first cell computes: consumers
	// learn the stream is live immediately, not minutes in.
	if flusher != nil {
		flusher.Flush()
	}
	err := s.cli.SuiteStream(r.Context(), req, func(cell edmac.SuiteCell) error {
		if err := enc.Encode(cell); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// The status line is long gone; a trailer line keeps the error
		// visible to stream consumers.
		_, code := errorStatus(err)
		enc.Encode(errorBody{Error: errorPayload{Code: code, Message: err.Error()}})
	}
}

// DefaultLogf returns a request logger onto the standard log package —
// what cmd/edserve wires in.
func DefaultLogf() func(format string, args ...any) {
	return log.Printf
}

// Command edserve serves the energy-delay bargaining framework over
// HTTP/JSON: POST a (scenario, requirements) pair to /v1/optimize and
// get the Nash-bargained operating point back, replay configurations
// via /v1/simulate, and run scenario×protocol matrices via /v1/suite —
// with one bounded LRU response cache (-cache entries) in front of the
// solvers and per-request cancellation threaded into the worker pools.
//
// Usage:
//
//	edserve [-addr :8080] [-cache 256] [-workers 0]
//	        [-request-timeout 0] [-drain-timeout 15s]
//	        [-jobs-queue 64] [-jobs-workers 2] [-jobs-ttl 15m]
//	        [-spill-dir ""] [-rate 0] [-burst 5] [-pprof]
//
// The async job tier (POST /v1/jobs and friends) runs long suites off
// the request path: -jobs-queue bounds admission (429 beyond it),
// -jobs-workers sizes the pool, -jobs-ttl bounds result retention, and
// -spill-dir persists finished results across restarts. -rate/-burst
// enable per-tenant token-bucket submission limits (X-Tenant header,
// else remote address); -pprof mounts net/http/pprof. GET /metrics
// always serves the Prometheus text exposition.
//
// A handler panic answers 500 and is counted in /healthz instead of
// killing the process; -request-timeout (when positive) bounds every
// request's context server-side — job execution is exempt, that's what
// jobs are for. The server drains gracefully on SIGINT/SIGTERM: new
// connections stop, in-flight requests get -drain-timeout to finish,
// and when the grace period expires the remaining connections are
// closed so a hung streaming consumer cannot stall the exit forever.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "edserve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains. ready (when non-nil)
// receives the bound listen address once the socket is open — the hook
// tests use to reach a server started on port 0.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("edserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", edmac.DefaultCacheSize, "response cache entries")
	workers := fs.Int("workers", 0, "worker pool size for sweeps, batches and suites (0: one per CPU)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline threaded into each request's context (0: none)")
	drain := fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown grace period")
	jobsQueue := fs.Int("jobs-queue", 0, "async job admission queue depth (0: default)")
	jobsWorkers := fs.Int("jobs-workers", 0, "concurrently executing async jobs (0: default)")
	jobsTTL := fs.Duration("jobs-ttl", 0, "retention of finished jobs before GC (0: default)")
	spillDir := fs.String("spill-dir", "", "directory persisting finished job results across restarts (empty: none)")
	rate := fs.Float64("rate", 0, "per-tenant job submissions per second (0: unlimited)")
	burst := fs.Int("burst", serve.DefaultRateBurst, "per-tenant submission burst")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cli, err := edmac.NewClient(edmac.WithWorkers(*workers))
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Client: cli, CacheSize: *cacheSize, RequestTimeout: *reqTimeout,
		JobQueue: *jobsQueue, JobWorkers: *jobsWorkers, JobTTL: *jobsTTL,
		JobSpillDir: *spillDir, RateLimit: *rate, RateBurst: *burst,
		EnablePprof: *pprofOn,
		Logf:        serve.DefaultLogf(),
	})
	if err != nil {
		return err
	}
	// Released after the HTTP drain so in-flight status/result requests
	// still see the store; running jobs are cancelled at that point.
	defer srv.Close()

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		log.Printf("edserve: listening on %s", ln.Addr())
		errCh <- httpSrv.Serve(ln)
	}()
	// run never returns while the serve goroutine is alive: every exit
	// path below first makes Serve return (error, Shutdown, or Close),
	// and the errCh send is buffered, so this join is bounded.
	defer serveWG.Wait()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("edserve: shutting down (grace %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// The grace period expired — a hung request (a stream whose
		// consumer stopped reading, say) is still holding its
		// connection. Close the remaining connections; their request
		// contexts cancel, aborting the in-flight work, and the exit
		// stays bounded by the grace period.
		httpSrv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("edserve: drained cleanly")
	return nil
}

package main

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The serving behaviour itself is integration-tested in internal/serve;
// the binary's own surface is flag handling and shutdown discipline.
func TestBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-bogus"}, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(ctx, []string{"-drain-timeout", "nonsense"}, nil); err == nil {
		t.Fatal("bad duration accepted")
	}
	if err := run(ctx, []string{"-request-timeout", "nonsense"}, nil); err == nil {
		t.Fatal("bad request timeout accepted")
	}
	// -cache sizes the only cache; the client result-cache flag is gone.
	// The cancelled context stops a server that would accept it.
	stopped, cancel := context.WithCancel(ctx)
	cancel()
	if err := run(stopped, []string{"-addr", "127.0.0.1:0", "-result-cache", "256"}, nil); err == nil {
		t.Fatal("-result-cache accepted")
	}
}

// TestShutdownBoundedByDrainTimeout is the stuck-consumer regression
// test: a client opens a streaming suite, reads one cell, then stops
// reading without closing — the handler is wedged mid-stream. SIGTERM
// (modelled by cancelling run's context) must still bring the process
// down within the drain grace period, by force-closing the hung
// connection after Shutdown's deadline expires.
func TestShutdownBoundedByDrainTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx,
			[]string{"-addr", "127.0.0.1:0", "-drain-timeout", "500ms"},
			func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}

	// Open a stream whose one cell takes minutes to compute, then go
	// quiet with the connection open: the headers are out (the handler
	// is committed to the stream) but no cell will arrive before the
	// drain deadline.
	body := `{"scenarios":["ring-baseline"],"protocols":["xmac"],"options":{"duration":1000000,"seed":1}}`
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/suite", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	// Let the suite spin up before pulling the plug.
	time.Sleep(300 * time.Millisecond)

	// SIGTERM with the stream wedged: the exit must be bounded by the
	// 500ms grace period, not wait for the suite to finish.
	start := time.Now()
	cancel()
	select {
	case err := <-runErr:
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("shutdown took %s with a stuck consumer; drain bound not honoured", elapsed)
		}
		// The expired grace period is reported, not swallowed.
		if err == nil || !strings.Contains(err.Error(), "shutdown") {
			t.Fatalf("run returned %v, want a shutdown-deadline error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run never returned after SIGTERM with a stuck stream consumer")
	}
}

// TestShutdownCleanWhenIdle: with no requests in flight the drain
// completes immediately and run returns nil.
func TestShutdownCleanWhenIdle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx,
			[]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"},
			func(addr string) { addrCh <- addr })
	}()
	select {
	case <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("idle shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle shutdown hung")
	}
}

// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads against the public entry points — Client.Suite, and
// the HTTP service through serve.New(...).Handler() in process — checks
// every output, and prints the end-to-end metrics (--trace 0) or a
// per-layer breakdown from a traced replay (--trace 1). Build and run it
// from the checkout's root through run.sh:
//
//	bash perfbench/run.sh --workload optimize-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload after its set-up.
type workload interface {
	// measure runs the workload for d and checks every output. With
	// detail set it also keeps what a traced replay checks itself against.
	measure(ctx context.Context, d time.Duration, detail bool) (*phase, error)
	// replay re-runs the same operations module by module, with a span
	// around each call, for d.
	replay(ctx context.Context, d time.Duration, r replayer) (*phase, error)
	// header describes the load shape for the run header.
	header() string
	close()
}

var setups = map[string]func(context.Context, *config) (workload, error){
	"suite-matrix":  setupSuiteMatrix,
	"optimize-cold": setupOptimizeCold,
	"serve-mixed":   setupServeMixed,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // where a traced run writes its spans
}

// setupReps is the number of set-ups on each side of the measured phase;
// setup_s is the median of all of them.
const setupReps = 10

// phase is one measured or replayed stretch of a workload.
type phase struct {
	loopRun
	kinds    []kind        // by operation index (serve-mixed only)
	liveHeap float64       // bytes retained once the loop ended
	replica  *serveReplica // the traced replay's serve state (HTTP workloads)

	mu       sync.Mutex
	counters map[string]float64   // per-layer values read from the program itself
	notes    map[string][]float64 // per-layer samples read from the program itself
	xcache   map[string]int       // X-Cache answers
	extra    int                  // failures beyond failed operations (output digests, job checks)
	errs     []string
}

func newPhase() *phase {
	return &phase{counters: map[string]float64{}, notes: map[string][]float64{}, xcache: map[string]int{}}
}

func (ph *phase) fail(format string, args ...any) { ph.failN(0, format, args...) }

// failN records a failure message, counting n failures beyond the
// failed operations themselves.
func (ph *phase) failN(n int, format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.extra += n
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

func (ph *phase) note(name string, v float64) {
	ph.mu.Lock()
	ph.notes[name] = append(ph.notes[name], v)
	ph.mu.Unlock()
}

func (ph *phase) count(xcache string) {
	ph.mu.Lock()
	ph.xcache[xcache]++
	ph.mu.Unlock()
}

// tally returns operations attempted and failed.
func (ph *phase) tally() (attempted, failed int) {
	return ph.attempted, ph.failed + ph.extra
}

// latencies returns operation latencies in seconds, optionally of one
// kind. A failed operation misses every limit: it counts as lasting the
// whole phase.
func (ph *phase) latencies(only func(kind) bool) []float64 {
	var out []float64
	for _, o := range ph.ops {
		if only != nil && !only(ph.kinds[o.idx]) {
			continue
		}
		if o.ok {
			out = append(out, o.lat)
		} else {
			out = append(out, ph.wall)
		}
	}
	return out
}

func (ph *phase) meanService() float64 {
	var xs []float64
	for _, o := range ph.ops {
		xs = append(xs, o.svc)
	}
	return mean(xs)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "", "suite-matrix, optimize-cold or serve-mixed")
	fs.Int64Var(&c.seed, "seed", goldenSeed, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1: print the per-layer breakdown of a traced replay instead")
	fs.StringVar(&c.out, "out", ".bench_build", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := setups[c.workload]
	if !ok || c.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload suite-matrix|optimize-cold|serve-mixed, --seconds > 0, --trace 0|1\n")
		return 2
	}
	c.trace = *traceFlag == 1
	ctx := context.Background()

	// The workload is set up several times before the measured phase, the
	// last set-up kept, and as often again after it, so that the median
	// set-up time samples the host at both ends of the run.
	var setupS []float64
	timedSetup := func() (workload, error) {
		t := time.Now()
		w, err := setup(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		return w, nil
	}
	var w workload
	for i := 0; i < setupReps; i++ {
		next, err := timedSetup()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if w != nil {
			w.close()
		}
		w = next
	}
	defer w.close()
	printHeader(stdout, c, w)

	res := result{Metrics: map[string]metric{}}
	var err error
	if c.trace {
		err = traced(ctx, stdout, c, w, &res)
	} else {
		err = endToEnd(ctx, stdout, c, w, &res, func() ([]float64, error) {
			for i := 0; i < setupReps; i++ {
				extra, err := timedSetup()
				if err != nil {
					return nil, err
				}
				extra.close()
			}
			return setupS, nil
		})
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.Correct = res.Failed == 0
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printHeader prints what makes two runs comparable.
func printHeader(w io.Writer, c *config, wl workload) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", c.workload, c.seed, c.seconds, c.trace)
	fmt.Fprintf(w, "# commit=%s sources=%s go=%s GOMAXPROCS=%d nproc=%d\n",
		commit, sourceDigest("."), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "# load: %s\n", wl.header())
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the code under test where no commit is recorded.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	var all []byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		all = append(all, rel...)
		all = append(all, data...)
	}
	return fmt.Sprintf("%016x", digest(all))
}

// line prints one metric with its unit and sample count.
func line(w io.Writer, name string, v float64, unit string, n int, note string) {
	fmt.Fprintf(w, "%-26s %14.6g %-7s n=%-7d %s\n", name, v, unit, n, note)
}

func reportErrors(w io.Writer, ph *phase) {
	for _, e := range ph.errs {
		fmt.Fprintf(w, "# failure: %s\n", e)
	}
}

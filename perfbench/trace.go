package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID indexes a span in its tracer; noParent marks a root.
type spanID int32

const noParent spanID = -1

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Parent spanID `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use: suite cells and job workers record from several
// goroutines at once, naming their parent explicitly.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent spanID, op int64) spanID {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(name string, parent spanID, op int64, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// keptOps bounds the spans a traced run writes out: those of its first
// operations, enough to inspect and small enough to write quickly.
const keptOps = 2000

// spansOfFirstOps returns the spans of operations numbered below n, with
// parents renumbered to index the returned slice.
func spansOfFirstOps(spans []span, n int64) []span {
	index := make([]spanID, len(spans))
	var out []span
	for i, s := range spans {
		index[i] = noParent
		if s.Op < 0 || s.Op >= n {
			continue
		}
		if s.Parent != noParent {
			s.Parent = index[s.Parent]
		}
		index[i] = spanID(len(out))
		out = append(out, s)
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Overlapping children (parallel suite cells)
// count once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.dur() - covered(iv)
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = max(end, x[1])
	}
	return total
}

// rootSpan names the span around one whole operation; its self time is
// what no layer span explains.
const rootSpan = "op"

// layerOf maps a span name onto the module it times: the part before the
// first dot ("sim.run" is the sim layer), and the root span onto the
// unexplained remainder.
func layerOf(name string) string {
	if name == rootSpan {
		return "(remainder)"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerTimes sums self time (ns) by layer, and the durations (ns) of the
// spans with each name.
func layerTimes(spans []span) (self map[string]int64, byName map[string][]int64) {
	st := selfTimes(spans)
	self, byName = map[string]int64{}, map[string][]int64{}
	for i, s := range spans {
		self[layerOf(s.Name)] += st[i]
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	return self, byName
}

// attribution is the per-layer table of one traced run.
type attribution struct {
	ops      int              // traced operations
	self     map[string]int64 // layer → self time, ns
	macmodel int64            // evals × ns_per_eval, carved out of nbs
	overhead float64          // trace.overhead_frac
	untraced float64          // mean untraced operation time, s
	traced   float64          // mean traced operation time, s
}

// print writes the table: each layer's self time in total and per
// operation, and its share of all self time. For operations without
// internal parallelism that sum is the total operation time, so the share
// is the share of operation time; the suite runs two cells at once, so
// there it is the share of busy time.
func (a *attribution) print(w io.Writer) {
	self := map[string]int64{}
	for k, v := range a.self {
		self[k] = v
	}
	if a.macmodel > 0 {
		m := min(a.macmodel, self["nbs"])
		self["macmodel"] = m
		self["nbs"] -= m
	}
	var total int64
	layers := make([]string, 0, len(self))
	for k, v := range self {
		total += v
		layers = append(layers, k)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "# attribution over %d traced operations (self time; macmodel = evals x ns_per_eval, carved out of nbs)\n", a.ops)
	fmt.Fprintf(w, "#   %-12s %12s %14s %8s\n", "layer", "self_s", "per_op_us", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "#   %-12s %12.6f %14.3f %7.2f%%\n", l, float64(self[l])/1e9,
			float64(self[l])/1e3/float64(max(a.ops, 1)), 100*share)
	}
	fmt.Fprintf(w, "#   untraced op mean %.6f s, traced op mean %.6f s, trace.overhead_frac %.4f\n",
		a.untraced, a.traced, a.overhead)
}

// largestLayer returns the layer with the most self time, ignoring the
// remainder; nbs counts with the evaluations it makes.
func (a *attribution) largestLayer() string {
	best, bestV := "", int64(-1)
	for k, v := range a.self {
		if k != "(remainder)" && v > bestV {
			best, bestV = k, v
		}
	}
	return best
}

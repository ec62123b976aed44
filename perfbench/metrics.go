package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// endToEnd measures the workload untraced and reports what a caller
// sees. Every workload reports the four metrics BENCHMARK.json lists, as
// the driver compares them run against run; the rest are printed for
// reading. Tail and cache-hit latency are among those: on the reference
// host they swing by a factor of two or more between runs of the same
// code, too far to gate on.
func endToEnd(ctx context.Context, stdout io.Writer, c *config, w workload, res *result, setups func() ([]float64, error)) error {
	ph, err := w.measure(ctx, seconds(c.seconds), false)
	if err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	setupS, err := setups()
	if err != nil {
		return err
	}
	attempted, failed := ph.tally()
	res.Attempted, res.Failed = attempted, failed
	all := ph.latencies(nil)
	misses := all
	if ph.kinds != nil {
		misses = ph.latencies(func(k kind) bool { return k != kindHit })
	}
	set := func(name string, v float64, unit string, n int, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		line(stdout, name, v, unit, n, note)
	}
	throughput := "completed operations per second"
	if ph.openWorkers > 0 {
		throughput = fmt.Sprintf("%d x completed operations per busy worker-second", ph.openWorkers)
	}
	set("setup_s", median(setupS), "s", len(setupS), "median set-up, warm-up included, before and after the run")
	set("ops_per_s", ph.opsPerSecond(), "1/s", ph.attempted-ph.failed, throughput)
	set("miss_p50_ms", median(misses)*1e3, "ms", len(misses), "median of the operations no cache answers")
	set("live_heap_mb", ph.liveHeap/(1<<20), "MB", 1, "live heap retained after the run, nothing in flight")

	show := func(name string, v float64, unit string, n int, note string) { line(stdout, name, v, unit, n, note) }
	show("failed_frac", ratio(float64(failed), float64(attempted)), "ratio", attempted, "failed or wrong outputs")
	switch c.workload {
	case "suite-matrix":
		samples := make([]string, len(all))
		for i, x := range all {
			samples[i] = fmt.Sprintf("%.3f", x)
		}
		show("matrix_s", median(all), "s", len(all), "median per full matrix of "+strings.Join(samples, " "))
	case "optimize-cold":
		show("p50_ms", median(all)*1e3, "ms", len(all), "")
		show("p99_ms", quantile(all, 0.99)*1e3, "ms", len(all), "")
	case "serve-mixed":
		of := func(k kind) []float64 { return ph.latencies(func(x kind) bool { return x == k }) }
		within := 0
		for _, o := range ph.ops {
			if o.ok && o.lat <= mixedLimit {
				within++
			}
		}
		show("p50_ms", median(all)*1e3, "ms", len(all), "from due time")
		show("p99_ms", quantile(all, 0.99)*1e3, "ms", len(all), "from due time")
		show("hit_p50_us", median(of(kindHit))*1e6, "us", len(of(kindHit)), "cache-hit optimize requests")
		show("simulate_p50_ms", median(of(kindSimulate))*1e3, "ms", len(of(kindSimulate)), "")
		show("job_p50_ms", median(of(kindJob))*1e3, "ms", len(of(kindJob)), "submit to result")
		show("within_limit_frac", ratio(float64(within), float64(attempted)), "ratio", attempted,
			fmt.Sprintf("done within %g ms of due time", mixedLimit*1e3))
	}
	reportErrors(stdout, ph)
	return nil
}

// traced runs the workload untraced for half the time, then replays the
// same operations module by module with spans for the other half, and
// reports the per-layer metrics with an attribution table.
func traced(ctx context.Context, stdout io.Writer, c *config, w workload, res *result) error {
	half := seconds(c.seconds / 2)
	ref, err := w.measure(ctx, half, true)
	if err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	tr, st := newTracer(), &replayStats{}
	rp, err := w.replay(ctx, half, replayer{tr, st})
	if err != nil {
		return fmt.Errorf("%s replay: %w", c.workload, err)
	}
	spans := tr.snapshot()
	if err := os.MkdirAll(c.out, 0o755); err == nil {
		path := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
		kept := spansOfFirstOps(spans, keptOps)
		if err := writeSpans(path, kept); err != nil {
			fmt.Fprintf(stdout, "# spans not written: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "# spans of the first %d operations (%d of %d) written to %s\n", keptOps, len(kept), len(spans), path)
		}
	}
	a1, f1 := ref.tally()
	a2, f2 := rp.tally()
	res.Attempted, res.Failed = a1+a2, f1+f2

	m := runMicro(c.seed, st, rp.replica)
	values, att := layerMetrics(ref, rp, st, spans, m)
	for _, lm := range layerCatalog {
		v := values[lm.name]
		res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		line(stdout, lm.name, v, lm.unit, rp.attempted, "")
	}
	att.print(stdout)
	confirm(stdout, c.workload, values, att, spans, rp)
	reportErrors(stdout, ref)
	reportErrors(stdout, rp)
	return nil
}

// layerCatalog lists the per-layer metrics in print order. Values marked
// /op are per traced operation (one matrix, or one request).
var layerCatalog = []struct{ name, unit string }{
	{"sim.runs", "count/op"}, {"sim.busy_s", "s/op"}, {"sim.events", "count/op"},
	{"sim.ns_per_event", "ns"}, {"sim.peak_pending", "count"}, {"sim.wheel_promotions", "count/op"},
	{"sim.allocs_per_run", "count"}, {"sim.materialize_s", "s/op"}, {"sim.engine_ns_per_op", "ns"},
	{"scenario.materializations", "count/op"}, {"scenario.materialize_s", "s/op"},
	{"macmodel.evals", "count/op"}, {"macmodel.evals_per_solve", "count"}, {"macmodel.ns_per_eval", "ns"},
	{"nbs.solves", "count/op"}, {"nbs.busy_s", "s/op"}, {"nbs.self_s", "s/op"},
	{"nbs.solve_p50_ms", "ms"}, {"nbs.solve_p99_ms", "ms"},
	{"adapt.rebargains", "count/op"}, {"adapt.busy_s", "s/op"}, {"adapt.ok_ratio", "ratio"},
	{"par.utilization", "ratio"}, {"par.tail_idle_s", "s/op"}, {"par.cell_max_s", "s"},
	{"client.encode_s", "s/op"}, {"client.cache_hit_ratio", "ratio"},
	{"jsonwire.key_ns", "ns"}, {"jsonwire.key_bytes", "bytes"},
	{"lru.hit_ratio", "ratio"}, {"lru.get_ns", "ns"}, {"lru.add_ns", "ns"},
	{"serve.decode_ns", "ns"}, {"serve.encode_ns", "ns"}, {"serve.hit_share", "ratio"}, {"serve.coalesced", "count"},
	{"jobs.queue_wait_p50_ms", "ms"}, {"jobs.run_p50_ms", "ms"}, {"jobs.events_per_job", "count"},
	{"gen.late_p99_ms", "ms"}, {"trace.overhead_frac", "ratio"},
}

// layerMetrics derives every per-layer metric: counts and busy time from
// the replay's spans and counters, costs from the microbenchmarks, and
// ratios the program keeps itself from the untraced half.
func layerMetrics(ref, rp *phase, st *replayStats, spans []span, m micro) (map[string]float64, *attribution) {
	self, byName := layerTimes(spans)
	selfBy := map[string]int64{}
	for i, s := range selfTimes(spans) {
		selfBy[spans[i].Name] += s
	}
	ops := float64(max(rp.attempted, 1))
	count := func(name string) float64 { return float64(len(byName[name])) }
	busy := func(names ...string) float64 { // seconds
		t := 0.0
		for _, n := range names {
			for _, d := range byName[n] {
				t += float64(d) / 1e9
			}
		}
		return t
	}
	ms := func(name string, q float64) float64 {
		xs := make([]float64, len(byName[name]))
		for i, d := range byName[name] {
			xs[i] = float64(d) / 1e6
		}
		return quantile(xs, q)
	}
	meanNs := func(name string) float64 { return ratio(busy(name)*1e9, count(name)) }
	evals := float64(st.evals.Load())
	v := map[string]float64{
		"sim.runs":             count("sim.run") / ops,
		"sim.busy_s":           busy("sim.run") / ops,
		"sim.events":           float64(st.events.Load()) / ops,
		"sim.ns_per_event":     ratio(float64(selfBy["sim.run"]), float64(st.events.Load())),
		"sim.peak_pending":     float64(st.peakPending.Load()),
		"sim.wheel_promotions": float64(st.promotions.Load()) / ops,
		"sim.allocs_per_run":   m.allocsPerRun,
		"sim.materialize_s":    busy("sim.materialize") / ops,
		"sim.engine_ns_per_op": m.engineNs,

		"scenario.materializations": count("scenario.materialize") / ops,
		"scenario.materialize_s":    busy("scenario.materialize") / ops,

		"macmodel.evals":           evals / ops,
		"macmodel.evals_per_solve": ratio(evals, count("nbs.solve")),
		"macmodel.ns_per_eval":     m.evalNs,

		"nbs.solves":       count("nbs.solve") / ops,
		"nbs.busy_s":       busy("nbs.solve") / ops,
		"nbs.self_s":       max(0, busy("nbs.solve")-evals*m.evalNs/1e9) / ops,
		"nbs.solve_p50_ms": ms("nbs.solve", 0.5),
		"nbs.solve_p99_ms": ms("nbs.solve", 0.99),

		"adapt.rebargains": float64(st.rebargains.Load()) / ops,
		"adapt.busy_s":     busy("adapt.plan", "adapt.survivors", "adapt.rebargain") / ops,
		"adapt.ok_ratio":   ratio(float64(st.rebargainOK.Load()), float64(st.rebargains.Load())),

		"client.encode_s":        busy("client.encode") / ops,
		"client.cache_hit_ratio": ref.counters["client.cache_hit_ratio"],

		"jsonwire.key_ns":    m.keyNs,
		"jsonwire.key_bytes": m.keyBytes,

		"lru.hit_ratio": ref.counters["lru.hit_ratio"],
		"lru.get_ns":    m.lruGetNs,
		"lru.add_ns":    m.lruAddNs,

		"serve.decode_ns":     meanNs("serve.decode"),
		"serve.encode_ns":     meanNs("serve.encode"),
		"serve.hit_share":     ref.counters["serve.hit_share"],
		"serve.coalesced":     ref.counters["serve.coalesced"],
		"trace.overhead_frac": ratio(rp.meanService(), ref.meanService()) - 1,
	}
	st.mu.Lock()
	v["par.utilization"] = ratio(st.parBusy, st.parWall)
	v["par.tail_idle_s"] = st.parTail / ops
	v["par.cell_max_s"] = st.parCellMax
	st.mu.Unlock()
	ref.mu.Lock()
	v["jobs.queue_wait_p50_ms"] = median(ref.notes["jobs.queue_wait_ms"])
	v["jobs.run_p50_ms"] = median(ref.notes["jobs.run_ms"])
	v["jobs.events_per_job"] = mean(ref.notes["jobs.events_per_job"])
	ref.mu.Unlock()
	if ref.kinds != nil {
		late := make([]float64, len(ref.ops))
		for i, o := range ref.ops {
			late[i] = o.late
		}
		v["gen.late_p99_ms"] = quantile(late, 0.99) * 1e3
	}
	att := &attribution{
		ops: rp.attempted, self: self,
		macmodel: int64(evals * m.evalNs),
		overhead: v["trace.overhead_frac"],
		untraced: ref.meanService(), traced: rp.meanService(),
	}
	return v, att
}

// confirm prints whether the traced run shows the shape the workload was
// chosen for. These are observations, not checks: a change may move them.
func confirm(w io.Writer, workload string, v map[string]float64, a *attribution, spans []span, rp *phase) {
	say := func(ok bool, what string) {
		mark := "yes"
		if !ok {
			mark = "NO"
		}
		fmt.Fprintf(w, "# confirm %-3s %s\n", mark, what)
	}
	switch workload {
	case "suite-matrix":
		say(a.largestLayer() == "sim", "sim is the largest self-time layer")
	case "optimize-cold":
		say(a.largestLayer() == "nbs", "nbs+macmodel is the largest self-time layer")
		say(v["sim.busy_s"] == 0 && v["adapt.rebargains"] == 0, "sim.busy_s and adapt.rebargains are 0")
	case "serve-mixed":
		solves := 0
		for _, s := range spans {
			if s.Name == "nbs.solve" && s.Op >= 0 && rp.kinds[s.Op] == kindHit {
				solves++
			}
		}
		say(solves == 0, fmt.Sprintf("no nbs.solve on the hit path (%d)", solves))
	}
}

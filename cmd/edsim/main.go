// Command edsim replays MAC protocol configurations in the packet-level
// discrete-event simulator and cross-validates the analytic models.
//
// Usage:
//
//	edsim run      -protocol xmac -params 0.25 -duration 1800 -seed 1
//	edsim validate -protocol lmac -params 15,0.05 -duration 1800
//	edsim validate -protocol xmac -params 0.25 -reps 8
//	edsim suite    -list
//	edsim suite    -out suite.json
//	edsim suite    -check testdata/suite_golden.json
//
// -reps N replicates the run under N consecutive seeds, fanned across
// every CPU, and reports each replication plus the aggregate — the
// Monte-Carlo cross-validation of the analytic models. Scenario flags
// (-depth, -density, -interval, -window, -payload, -radio) are accepted
// by run and validate.
//
// The suite subcommand plays the declarative scenario matrix (builtin
// registry × all protocols) in parallel and emits one machine-readable
// JSON report; -check diffs it byte-for-byte against a committed golden
// file, the determinism gate CI runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	edmac "github.com/edmac-project/edmac"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (run, validate)")
	}
	// One client serves every subcommand; the signal-aware ctx lets an
	// interrupt abort simulations (and whole suites) mid-event-loop.
	cli, err := edmac.NewClient()
	if err != nil {
		return err
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(ctx, cli, rest, false)
	case "validate":
		return cmdRun(ctx, cli, rest, true)
	case "suite":
		return cmdSuite(ctx, cli, rest)
	case "help", "-h", "--help":
		fmt.Println("subcommands: run, validate, suite")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func cmdRun(ctx context.Context, cli *edmac.Client, args []string, validate bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	protocol := fs.String("protocol", "xmac", "protocol (xmac, dmac, lmac)")
	paramsArg := fs.String("params", "", "comma-separated protocol parameters (required)")
	duration := fs.Float64("duration", 1800, "simulated seconds")
	seed := fs.Int64("seed", 1, "random seed (first seed with -reps)")
	reps := fs.Int("reps", 1, "Monte-Carlo replications under consecutive seeds, run in parallel")
	def := edmac.DefaultScenario()
	depth := fs.Int("depth", def.Depth, "network depth D in hops")
	density := fs.Int("density", def.Density, "unit-disk neighbourhood density C")
	interval := fs.Float64("interval", 120, "seconds between samples per node")
	window := fs.Float64("window", def.Window, "energy accounting window in seconds")
	payload := fs.Int("payload", def.Payload, "application payload bytes")
	radioName := fs.String("radio", def.Radio, "radio profile (cc2420, cc1101)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params, err := parseParams(*paramsArg)
	if err != nil {
		return err
	}
	scenario := edmac.Scenario{
		Depth:          *depth,
		Density:        *density,
		SampleInterval: *interval,
		Window:         *window,
		Payload:        *payload,
		Radio:          *radioName,
	}
	opts := edmac.SimOptions{Duration: *duration, Seed: *seed}

	p := edmac.Protocol(*protocol)
	if *reps > 1 {
		return runReplicated(ctx, cli, p, scenario, params, opts, *reps, validate)
	}

	rep, err := cli.Simulate(ctx, edmac.SimulateRequest{Protocol: p, Scenario: &scenario, Params: params, Options: opts})
	if err != nil {
		return err
	}
	printSimReport(rep.Sim)
	if validate {
		printAnalytic(ctx, cli, p, scenario, params, rep.Sim.BottleneckEnergy, rep.Sim.OuterRingDelay)
	}
	return nil
}

// runReplicated fans reps simulations with consecutive seeds across the
// CPUs via Client.Batch and prints per-seed rows plus the aggregate.
func runReplicated(ctx context.Context, cli *edmac.Client, p edmac.Protocol, s edmac.Scenario, params []float64,
	o edmac.SimOptions, reps int, validate bool) error {
	seeds := make([]int64, reps)
	runs := make([]edmac.BatchRun, reps)
	for i := range seeds {
		seeds[i] = o.Seed + int64(i)
		opts := o
		opts.Seed = seeds[i]
		runs[i] = edmac.BatchRun{Protocol: p, Params: params, Options: opts}
	}
	batch, err := cli.Batch(ctx, edmac.BatchRequest{Scenario: &s, Runs: runs})
	if err != nil {
		return err
	}
	outcomes := batch.Outcomes

	fmt.Printf("protocol          %s  params=%v  reps=%d\n", p, params, reps)
	fmt.Printf("%-8s %-10s %-12s %-12s %-12s %s\n",
		"seed", "delivery", "mean[s]", "outer[s]", "E[J/win]", "collisions")
	var deliv, delay, outer, energy []float64
	for i, out := range outcomes {
		if out.Err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], out.Err)
		}
		r := out.Report
		fmt.Printf("%-8d %-10.4f %-12.4g %-12.4g %-12.5g %d\n",
			seeds[i], r.DeliveryRatio, r.MeanDelay, r.OuterRingDelay, r.BottleneckEnergy, r.Collisions)
		deliv = append(deliv, r.DeliveryRatio)
		delay = append(delay, r.MeanDelay)
		outer = append(outer, r.OuterRingDelay)
		energy = append(energy, r.BottleneckEnergy)
	}
	mDeliv, sdDeliv := meanStd(deliv)
	mDelay, sdDelay := meanStd(delay)
	mOuter, sdOuter := meanStd(outer)
	mEnergy, sdEnergy := meanStd(energy)
	fmt.Printf("%-8s %-10.4f %-12.4g %-12.4g %-12.5g\n", "mean", mDeliv, mDelay, mOuter, mEnergy)
	fmt.Printf("%-8s %-10.4f %-12.4g %-12.4g %-12.5g\n", "stddev", sdDeliv, sdDelay, sdOuter, sdEnergy)

	if validate {
		printAnalytic(ctx, cli, p, s, params, mEnergy, mOuter)
	}
	return nil
}

// printAnalytic prints the model's predictions at params next to the
// measured bottleneck energy and outer-ring delay. The runs stand on
// their own, so a failed evaluation (parameters outside the model's
// admissible box) takes the table's place rather than failing the
// command.
func printAnalytic(ctx context.Context, cli *edmac.Client, p edmac.Protocol, s edmac.Scenario, params []float64, energy, outer float64) {
	eval, err := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: p, Scenario: &s, Params: params})
	if err != nil {
		fmt.Printf("\nno analytic comparison: %v\n", err)
		return
	}
	fmt.Printf("\n%-26s %-14s %-14s %s\n", "metric", "analytic", "measured", "ratio")
	fmt.Printf("%-26s %-14.5g %-14.5g %.2f\n", "bottleneck energy [J/win]",
		eval.Energy, energy, energy/eval.Energy)
	fmt.Printf("%-26s %-14.5g %-14.5g %.2f\n", "outer-ring delay [s]",
		eval.Delay, outer, outer/eval.Delay)
}

// meanStd returns the sample mean and standard deviation, ignoring NaNs.
func meanStd(v []float64) (mean, sd float64) {
	n := 0
	for _, x := range v {
		if math.IsNaN(x) {
			continue
		}
		mean += x
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	for _, x := range v {
		if math.IsNaN(x) {
			continue
		}
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(n-1))
}

func printSimReport(rep edmac.SimReport) {
	fmt.Printf("protocol          %s  params=%v\n", rep.Protocol, rep.Params)
	fmt.Printf("network           %d nodes, %.0f simulated seconds\n", rep.Nodes, rep.Duration)
	fmt.Printf("packets           generated=%d delivered=%d dropped=%d collisions=%d\n",
		rep.Generated, rep.Delivered, rep.Dropped, rep.Collisions)
	fmt.Printf("delivery ratio    %.4f\n", rep.DeliveryRatio)
	fmt.Printf("delay [s]         mean=%.4g p95=%.4g max=%.4g outer-ring=%.4g\n",
		rep.MeanDelay, rep.P95Delay, rep.MaxDelay, rep.OuterRingDelay)
	fmt.Printf("bottleneck energy %.5g J/window\n", rep.BottleneckEnergy)
}

func parseParams(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-params is required (comma-separated, e.g. -params 0.25)")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad parameter %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Command edmac optimizes duty-cycled MAC protocol parameters for a fair
// energy-delay trade-off using the Nash-bargaining framework, and
// regenerates the paper's figures.
//
// Usage:
//
//	edmac optimize -protocol xmac -budget 0.06 -deadline 6
//	edmac compare  -budget 0.06 -deadline 6
//	edmac frontier -protocol lmac -deadline 6 -points 25
//	edmac fig1     [-protocol xmac|dmac|lmac|all]
//	edmac fig2     [-protocol xmac|dmac|lmac|all]
//	edmac params   -protocol dmac
//
// Scenario flags (-depth, -density, -interval, -window, -payload,
// -radio) are accepted by every subcommand.
//
// The command is a thin shell over edmac.Client: one client serves
// every subcommand, and an interrupt (Ctrl-C) cancels the context the
// requests run under, aborting solves and sweeps in flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	edmac "github.com/edmac-project/edmac"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edmac:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (optimize, compare, frontier, fig1, fig2, params)")
	}
	cli, err := edmac.NewClient()
	if err != nil {
		return err
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "optimize":
		return cmdOptimize(ctx, cli, rest)
	case "compare":
		return cmdCompare(ctx, cli, rest)
	case "frontier":
		return cmdFrontier(ctx, cli, rest)
	case "fig1":
		return cmdFigure(ctx, cli, rest, true)
	case "fig2":
		return cmdFigure(ctx, cli, rest, false)
	case "params":
		return cmdParams(ctx, cli, rest)
	case "help", "-h", "--help":
		fmt.Println("subcommands: optimize, compare, frontier, fig1, fig2, params")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// scenarioFlags registers the deployment flags on fs and returns a
// loader to call after parsing.
func scenarioFlags(fs *flag.FlagSet) func() edmac.Scenario {
	def := edmac.DefaultScenario()
	depth := fs.Int("depth", def.Depth, "network depth D in hops")
	density := fs.Int("density", def.Density, "unit-disk neighbourhood density C")
	interval := fs.Float64("interval", def.SampleInterval, "seconds between samples per node")
	window := fs.Float64("window", def.Window, "energy accounting window in seconds")
	payload := fs.Int("payload", def.Payload, "application payload bytes")
	radioName := fs.String("radio", def.Radio, "radio profile (cc2420, cc1101)")
	return func() edmac.Scenario {
		return edmac.Scenario{
			Depth:          *depth,
			Density:        *density,
			SampleInterval: *interval,
			Window:         *window,
			Payload:        *payload,
			Radio:          *radioName,
		}
	}
}

func cmdOptimize(ctx context.Context, cli *edmac.Client, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	protocol := fs.String("protocol", "xmac", "protocol (xmac, dmac, lmac, bmac)")
	budget := fs.Float64("budget", 0.06, "energy budget per window in joules")
	deadline := fs.Float64("deadline", 6, "maximum end-to-end delay in seconds")
	relaxed := fs.Bool("relaxed", false, "allow best-effort points when the pair is unattainable")
	scenario := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := scenario()
	rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{
		Protocol:     edmac.Protocol(*protocol),
		Scenario:     &s,
		Requirements: edmac.Requirements{EnergyBudget: *budget, MaxDelay: *deadline},
		Relaxed:      *relaxed,
	})
	if err != nil {
		return err
	}
	printResult(ctx, cli, rep.Result, s)
	return nil
}

func printResult(ctx context.Context, cli *edmac.Client, res edmac.Result, s edmac.Scenario) {
	specs := paramTable(ctx, cli, res.Protocol, s)
	fmt.Printf("protocol      %s\n", res.Protocol)
	fmt.Printf("requirements  Ebudget=%g J/window, Lmax=%g s\n",
		res.Requirements.EnergyBudget, res.Requirements.MaxDelay)
	row := func(name string, p edmac.OperatingPoint) {
		fmt.Printf("%-13s E=%-10.5g L=%-9.4g params=%s\n", name, p.Energy, p.Delay, formatParams(p.Params, specs))
	}
	row("energy-opt", res.EnergyOptimal)
	row("delay-opt", res.DelayOptimal)
	fmt.Printf("%-13s E=%-10.5g L=%-9.4g\n", "threat point", res.WorstEnergy, res.WorstDelay)
	row("nash bargain", res.Bargain)
	fmt.Printf("fairness      energy=%.3f delay=%.3f\n", res.FairnessEnergy, res.FairnessDelay)
	if res.BudgetExceeded {
		fmt.Println("note          requirements jointly unattainable; best-effort point exceeds the budget")
	}
	if res.Degenerate {
		fmt.Println("note          degenerate game: no strict joint improvement over the threat point")
	}
}

// paramTable fetches the parameter specs for labelling, empty on error
// (labels then fall back to bare numbers, as before).
func paramTable(ctx context.Context, cli *edmac.Client, p edmac.Protocol, s edmac.Scenario) []edmac.ParamSpec {
	rep, _ := cli.Params(ctx, edmac.ParamsRequest{Protocol: p, Scenario: &s})
	return rep.Params
}

func formatParams(params []float64, specs []edmac.ParamSpec) string {
	out := ""
	for i, v := range params {
		if i > 0 {
			out += ", "
		}
		if i < len(specs) {
			out += fmt.Sprintf("%s=%.4g %s", specs[i].Name, v, specs[i].Unit)
		} else {
			out += fmt.Sprintf("%.4g", v)
		}
	}
	return out
}

func cmdCompare(ctx context.Context, cli *edmac.Client, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	budget := fs.Float64("budget", 0.06, "energy budget per window in joules")
	deadline := fs.Float64("deadline", 6, "maximum end-to-end delay in seconds")
	scenario := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := scenario()
	rep, err := cli.Compare(ctx, edmac.CompareRequest{
		Scenario:     &s,
		Requirements: edmac.Requirements{EnergyBudget: *budget, MaxDelay: *deadline},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-12s %-10s %-8s %s\n", "proto", "E* [J]", "L* [s]", "flags", "params")
	for _, c := range rep.Comparisons {
		if c.Err != nil {
			fmt.Printf("%-6s infeasible: %v\n", c.Protocol, c.Err)
			continue
		}
		flags := "-"
		if c.Result.BudgetExceeded {
			flags = "over-budget"
		}
		fmt.Printf("%-6s %-12.5g %-10.4g %-8s %s\n", c.Protocol,
			c.Result.Bargain.Energy, c.Result.Bargain.Delay, flags,
			formatParams(c.Result.Bargain.Params, paramTable(ctx, cli, c.Protocol, s)))
	}
	if rep.Best >= 0 {
		fmt.Printf("best: %s\n", rep.Comparisons[rep.Best].Protocol)
	} else {
		fmt.Println("best: none meets the requirements outright")
	}
	return nil
}

func cmdFrontier(ctx context.Context, cli *edmac.Client, args []string) error {
	fs := flag.NewFlagSet("frontier", flag.ContinueOnError)
	protocol := fs.String("protocol", "xmac", "protocol")
	budget := fs.Float64("budget", 0.06, "energy budget per window in joules")
	deadline := fs.Float64("deadline", 6, "maximum end-to-end delay in seconds")
	points := fs.Int("points", 25, "number of frontier samples")
	scenario := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := scenario()
	rep, err := cli.Frontier(ctx, edmac.FrontierRequest{
		Protocol:     edmac.Protocol(*protocol),
		Scenario:     &s,
		Requirements: edmac.Requirements{EnergyBudget: *budget, MaxDelay: *deadline},
		Points:       *points,
	})
	if err != nil {
		return err
	}
	fmt.Println("energy_j,delay_s")
	for _, p := range rep.Points {
		fmt.Printf("%.6g,%.6g\n", p.Energy, p.Delay)
	}
	return nil
}

func cmdParams(ctx context.Context, cli *edmac.Client, args []string) error {
	fs := flag.NewFlagSet("params", flag.ContinueOnError)
	protocol := fs.String("protocol", "xmac", "protocol")
	scenario := scenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := scenario()
	rep, err := cli.Params(ctx, edmac.ParamsRequest{Protocol: edmac.Protocol(*protocol), Scenario: &s})
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-6s %-12s %-12s\n", "name", "unit", "min", "max")
	for _, sp := range rep.Params {
		fmt.Printf("%-18s %-6s %-12.5g %-12.5g\n", sp.Name, sp.Unit, sp.Min, sp.Max)
	}
	return nil
}

// Tunnel: adaptive lighting in a road tunnel — the deployment that
// motivates the paper (its reference [2], Ceriotti et al., IPSN 2011).
//
// A tunnel is a long, thin multi-hop network: great depth, low density,
// and a tight control deadline (lights must react to traffic), but the
// nodes are battery powered, so every relay must duty-cycle. The example
// models the tunnel as a deep, sparse ring scenario, plays the game for
// all three protocols over a range of control deadlines, and shows where
// each protocol stops being deployable.
//
//	go run ./examples/tunnel
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	edmac "github.com/edmac-project/edmac"
)

func main() {
	// 25 hops of tunnel, sparse (density 2), light sensing traffic (one
	// report per node per 10 min), energy accounted per minute.
	scenario := edmac.Scenario{
		Depth:          25,
		Density:        2,
		SampleInterval: 600,
		Window:         60,
		Payload:        24,
		Radio:          "cc2420",
	}
	budget := 0.05 // J per minute at the first-hop relays
	cli, err := edmac.NewClient(edmac.WithScenario(scenario))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("Road-tunnel lighting: 25 hops, Ebudget = 0.05 J/min")
	fmt.Printf("%-12s %-28s %-28s %-28s\n", "deadline", "xmac", "dmac", "lmac")
	for _, deadline := range []float64{2, 5, 10, 20, 40} {
		req := edmac.Requirements{EnergyBudget: budget, MaxDelay: deadline}
		fmt.Printf("%-12s", fmt.Sprintf("%g s", deadline))
		for _, p := range edmac.PaperProtocols() {
			rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{Protocol: p, Requirements: req})
			res := rep.Result
			switch {
			case errors.Is(err, edmac.ErrInfeasible):
				fmt.Printf(" %-27s", "infeasible")
			case err != nil:
				log.Fatalf("%s: %v", p, err)
			default:
				fmt.Printf(" %-27s", fmt.Sprintf("E=%.4g J L=%.3g s", res.Bargain.Energy, res.Bargain.Delay))
			}
		}
		fmt.Println()
	}

	// Pick the best protocol for the 10-second control loop.
	cmp, err := cli.Compare(ctx, edmac.CompareRequest{Requirements: edmac.Requirements{EnergyBudget: budget, MaxDelay: 10}})
	if err != nil {
		log.Fatal(err)
	}
	if cmp.Best < 0 {
		log.Fatal("no protocol satisfies the tunnel requirements")
	}
	best := cmp.Comparisons[cmp.Best]
	specs, err := cli.Params(ctx, edmac.ParamsRequest{Protocol: best.Protocol})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRecommendation for a 10 s control loop: %s\n", best.Protocol)
	for i, sp := range specs.Params {
		fmt.Printf("  %s = %.4g %s\n", sp.Name, best.Result.Bargain.Params[i], sp.Unit)
	}
	fmt.Printf("  bottleneck energy %.4g J/min (budget %.3g), control latency %.3g s\n",
		best.Result.Bargain.Energy, budget, best.Result.Bargain.Delay)
}

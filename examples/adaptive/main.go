// Adaptive: runtime parameter adaptation driven by the game — the
// scenario the paper positions itself against pTunes (its reference
// [12]). When the application's sampling rate drifts (a storm makes the
// sensors chatty, a quiet week calms them down), the old MAC parameters
// sit at the wrong point of the energy-delay frontier. Re-playing the
// game per epoch keeps the deployment at the fair trade-off, and the
// run shows how the bargained wakeup interval tracks the load.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"

	edmac "github.com/edmac-project/edmac"
)

func main() {
	cli, err := edmac.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	req := edmac.Requirements{EnergyBudget: 0.03, MaxDelay: 4}
	// A week of operation with drifting traffic: sample intervals in
	// seconds per epoch (shorter = busier network).
	epochs := []struct {
		label    string
		interval float64
	}{
		{"calm baseline", 7200},
		{"routine sampling", 3600},
		{"storm watch", 900},
		{"storm peak", 300},
		{"recovery", 1800},
		{"back to calm", 7200},
	}

	fmt.Println("Adaptive re-optimization of X-MAC under (0.03 J/min, 4 s):")
	fmt.Printf("%-18s %-12s %-14s %-12s %-10s %s\n",
		"epoch", "interval[s]", "Tw*[s]", "E*[J/min]", "L*[s]", "note")

	var frozen []float64 // the storm-peak check below reuses the calm parameters
	for i, ep := range epochs {
		scenario := edmac.DefaultScenario()
		scenario.SampleInterval = ep.interval
		// Relaxed mode: when a storm pushes the load beyond what the
		// budget can cover, deploy the best-effort point and say so
		// instead of dying.
		rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{
			Protocol: edmac.XMAC, Scenario: &scenario, Requirements: req, Relaxed: true,
		})
		if err != nil {
			log.Fatalf("%s: %v", ep.label, err)
		}
		res := rep.Result
		note := ""
		if res.BudgetExceeded {
			note = "budget unattainable at this load"
		}
		fmt.Printf("%-18s %-12g %-14.4g %-12.4g %-10.4g %s\n",
			ep.label, ep.interval, res.Bargain.Params[0], res.Bargain.Energy, res.Bargain.Delay, note)
		if i == 0 {
			frozen = res.Bargain.Params
		}
	}

	// What static parameters would have cost: evaluate the calm-epoch
	// configuration under the storm-peak load.
	storm := edmac.DefaultScenario()
	storm.SampleInterval = 300
	stale, err := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: edmac.XMAC, Scenario: &storm, Params: frozen})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Scenario: &storm, Requirements: req, Relaxed: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	adapted := rep.Result.Bargain
	fmt.Printf("\nStorm peak with frozen calm-epoch parameters: E=%.4g J/min (budget %.3g!), L=%.3g s\n",
		stale.Energy, req.EnergyBudget, stale.Delay)
	fmt.Printf("Storm peak after re-playing the game:         E=%.4g J/min, L=%.3g s\n",
		adapted.Energy, adapted.Delay)
	fmt.Printf("Adaptation recovers %.0f%% of the energy overshoot.\n",
		100*(stale.Energy-adapted.Energy)/stale.Energy)
}

// Envmonitor: a long-lived environmental monitoring network — the
// "very low data rate" regime the analytic models target. Deadlines are
// loose (minutes would be fine), the battery budget is everything, and
// the example shows the energy player dominating the agreement as the
// deadline relaxes, plus the lifetime implied by each operating point.
//
//	go run ./examples/envmonitor
package main

import (
	"context"
	"fmt"
	"log"

	edmac "github.com/edmac-project/edmac"
)

// batteryJ is the usable energy of a pair of AA cells in joules.
const batteryJ = 10000.0

func main() {
	scenario := edmac.DefaultScenario()
	scenario.SampleInterval = 3600 // one sample per node per hour
	budget := 0.015                // 15 mJ per minute -> years of lifetime
	cli, err := edmac.NewClient(edmac.WithScenario(scenario))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("Environmental monitoring: Ebudget = 15 mJ/min, one sample/h")
	fmt.Printf("%-12s %-12s %-10s %-12s %s\n", "deadline", "E* [J/min]", "L* [s]", "lifetime", "note")
	for _, deadline := range []float64{1, 5, 15, 60} {
		req := edmac.Requirements{EnergyBudget: budget, MaxDelay: deadline}
		rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{Protocol: edmac.XMAC, Requirements: req, Relaxed: true})
		if err != nil {
			log.Fatalf("deadline %g: %v", deadline, err)
		}
		res := rep.Result
		note := ""
		if res.BudgetExceeded {
			note = "budget exceeded (best effort)"
		}
		fmt.Printf("%-12s %-12.4g %-10.4g %-12s %s\n",
			fmt.Sprintf("%g s", deadline), res.Bargain.Energy, res.Bargain.Delay,
			lifetime(res.Bargain.Energy), note)
	}

	// The headline of this regime: compare the protocols at a relaxed
	// one-minute deadline. X-MAC's traffic-proportional cost wins when
	// samples are this rare; LMAC's control tracking never amortizes.
	fmt.Println("\nProtocol comparison at a 60 s deadline:")
	rep, err := cli.Compare(ctx, edmac.CompareRequest{Requirements: edmac.Requirements{EnergyBudget: budget, MaxDelay: 60}})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range rep.Comparisons {
		if c.Err != nil {
			fmt.Printf("  %-5s infeasible\n", c.Protocol)
			continue
		}
		note := ""
		if c.Result.BudgetExceeded {
			note = " (budget exceeded)"
		}
		fmt.Printf("  %-5s E=%.4g J/min  L=%.3g s  lifetime %s%s\n",
			c.Protocol, c.Result.Bargain.Energy, c.Result.Bargain.Delay,
			lifetime(c.Result.Bargain.Energy), note)
	}
}

// lifetime renders the node lifetime implied by a per-minute energy.
func lifetime(joulesPerMinute float64) string {
	minutes := batteryJ / joulesPerMinute
	days := minutes / 60 / 24
	if days > 730 {
		return fmt.Sprintf("%.1f years", days/365)
	}
	return fmt.Sprintf("%.0f days", days)
}

// Protocolpick: sweep a grid of application requirements and print which
// protocol the framework would deploy in each cell — a design-space map
// of the kind the paper's introduction says system designers currently
// build "based on repeated real experiences".
//
//	go run ./examples/protocolpick
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
	budgets := []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	deadlines := []float64{0.5, 1, 2, 4, 8}

	fmt.Println("Best protocol per requirement cell (rows: Ebudget J/min, cols: Lmax s)")
	fmt.Printf("%-10s", "")
	for _, d := range deadlines {
		fmt.Printf("%-10s", fmt.Sprintf("%gs", d))
	}
	fmt.Println()
	for _, b := range budgets {
		fmt.Printf("%-10s", fmt.Sprintf("%gJ", b))
		for _, d := range deadlines {
			req := edmac.Requirements{EnergyBudget: b, MaxDelay: d}
			rep, err := cli.Compare(ctx, edmac.CompareRequest{Requirements: req})
			if err != nil {
				log.Fatal(err)
			}
			if rep.Best >= 0 {
				fmt.Printf("%-10s", rep.Comparisons[rep.Best].Protocol)
			} else {
				fmt.Printf("%-10s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Println("\n'-' marks cells no protocol satisfies outright in this scenario.")

	// Zoom into one contested cell and show the numbers behind the pick.
	req := edmac.Requirements{EnergyBudget: 0.02, MaxDelay: 1}
	fmt.Printf("\nDetail for (%.3g J, %g s):\n", req.EnergyBudget, req.MaxDelay)
	rep, err := cli.Compare(ctx, edmac.CompareRequest{Requirements: req})
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
		fmt.Printf("  %-5s bargain E=%.4g J L=%.3g s%s\n",
			c.Protocol, c.Result.Bargain.Energy, c.Result.Bargain.Delay, note)
	}
}

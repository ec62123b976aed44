// Quickstart: optimize one protocol for an application's energy budget
// and delay bound, and read back the MAC parameters to deploy.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	edmac "github.com/edmac-project/edmac"
)

func main() {
	// The deployment: a depth-5 CC2420 sensor network sampling once per
	// 10 hours (the calibrated default of the paper reproduction, and the
	// client's default scenario).
	cli, err := edmac.NewClient()
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	ctx := context.Background()

	// The application requires at most 0.06 J per minute at the
	// bottleneck node and end-to-end delivery within 6 seconds — the
	// paper's headline requirement pair.
	req := edmac.PaperRequirements()

	rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{Protocol: edmac.XMAC, Requirements: req})
	if err != nil {
		log.Fatalf("optimize: %v", err)
	}
	res := rep.Result

	specs, err := cli.Params(ctx, edmac.ParamsRequest{Protocol: edmac.XMAC})
	if err != nil {
		log.Fatalf("params: %v", err)
	}

	fmt.Println("X-MAC energy-delay game under (0.06 J, 6 s):")
	fmt.Printf("  energy player's optimum : E=%.4g J  L=%.3g s\n",
		res.EnergyOptimal.Energy, res.EnergyOptimal.Delay)
	fmt.Printf("  delay player's optimum  : E=%.4g J  L=%.3g s\n",
		res.DelayOptimal.Energy, res.DelayOptimal.Delay)
	fmt.Printf("  threat point            : E=%.4g J  L=%.3g s\n",
		res.WorstEnergy, res.WorstDelay)
	fmt.Printf("  Nash bargain (deploy!)  : E=%.4g J  L=%.3g s\n",
		res.Bargain.Energy, res.Bargain.Delay)
	for i, sp := range specs.Params {
		fmt.Printf("      %s = %.4g %s\n", sp.Name, res.Bargain.Params[i], sp.Unit)
	}
	fmt.Printf("  proportional fairness   : energy %.2f, delay %.2f\n",
		res.FairnessEnergy, res.FairnessDelay)

	// What-if: how much energy does halving the bargained wakeup
	// interval cost, and what does it buy in latency?
	half := []float64{res.Bargain.Params[0] / 2}
	what, err := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: edmac.XMAC, Params: half})
	if err != nil {
		log.Fatalf("evaluate: %v", err)
	}
	e, l := what.Energy, what.Delay
	fmt.Printf("\nWhat-if (half the wakeup interval): E=%.4g J (+%.0f%%), L=%.3g s (%.0f%%)\n",
		e, 100*(e/res.Bargain.Energy-1), l, 100*l/res.Bargain.Delay)
}

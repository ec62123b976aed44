// Command scenariofile demonstrates the declarative scenario workflow
// end to end: load a JSON spec from disk, map it onto the analytic ring
// model, bargain a protocol configuration for it, and replay the
// bargain at packet level on the spec's explicit network under its
// traffic model.
//
// Run from the repository root:
//
//	go run ./examples/scenariofile                 # bundled orchard spec
//	go run ./examples/scenariofile my-network.json # your own deployment
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	edmac "github.com/edmac-project/edmac"
)

func main() {
	path := "examples/scenariofile/orchard.json"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	sp, err := edmac.LoadScenario(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q: %s topology, %s traffic\n  %s\n\n",
		sp.Name(), sp.TopologyKind(), sp.TrafficKind(), sp.Description())

	// The analytic bridge: the explicit network collapses to an
	// equivalent ring model the closed-form MAC models understand.
	s, err := sp.Scenario()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equivalent ring model: depth %d, density %d, one packet per %.0f s per node\n",
		s.Depth, s.Density, s.SampleInterval)

	// Play the energy-delay game on it. The delay bound scales with the
	// network's depth, as a deeper network cannot beat its hop count.
	cli, err := edmac.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	req := edmac.Requirements{EnergyBudget: 0.06, MaxDelay: 3 + 1.2*float64(s.Depth)}
	opt, err := cli.Optimize(ctx, edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Scenario: &s, Requirements: req, Relaxed: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := opt.Result
	fmt.Printf("X-MAC bargain: params %v -> %.4g J/window, %.3g s end-to-end\n",
		res.Bargain.Params, res.Bargain.Energy, res.Bargain.Delay)

	// Replay the bargain on the real shape: packets now rise through the
	// actual cluster tiers under the actual bursty workload.
	simRep, err := cli.Simulate(ctx, edmac.SimulateRequest{
		Protocol: edmac.XMAC, Spec: &sp, Params: res.Bargain.Params,
		Options: edmac.SimOptions{Duration: 900, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := simRep.Sim
	fmt.Printf("\nsimulated %.0f s (seed %d): %d nodes, %d packets, delivery %.3f\n",
		rep.Duration, rep.Seed, rep.Nodes, rep.Generated, rep.DeliveryRatio)
	fmt.Printf("measured: mean delay %.3g s, outer-ring delay %.3g s, bottleneck energy %.4g J/window\n",
		rep.MeanDelay, rep.OuterRingDelay, rep.BottleneckEnergy)
}

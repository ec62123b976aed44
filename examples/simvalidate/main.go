// Simvalidate: replay analytically optimized configurations in the
// packet-level simulator and report measured-vs-predicted energy and
// delay — the repo's evidence that the closed-form models stand on
// something.
//
//	go run ./examples/simvalidate
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	edmac "github.com/edmac-project/edmac"
)

// paramString renders a parameter vector compactly, e.g. "1, 0.005".
func paramString(params []float64) string {
	parts := make([]string, len(params))
	for i, v := range params {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return strings.Join(parts, ", ")
}

// ratio renders an optional measured/predicted ratio; "-" marks a
// measurement too thin to compare.
func ratio(r *float64) string {
	if r == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f", *r)
}

func main() {
	// A small, busy scenario so half an hour of simulated time carries
	// statistics: depth 3, density 4, one sample per node per 2 minutes.
	scenario := edmac.Scenario{
		Depth:          3,
		Density:        4,
		SampleInterval: 120,
		Window:         60,
		Payload:        32,
		Radio:          "cc2420",
	}

	configs := []struct {
		protocol edmac.Protocol
		params   []float64
		interval float64 // per-protocol stable sampling regime
	}{
		{edmac.XMAC, []float64{0.25}, 120},
		{edmac.DMAC, []float64{1.0, 0.005}, 600},
		{edmac.LMAC, []float64{13, 0.02}, 120},
	}

	cli, err := edmac.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Packet-level validation of the analytic models (1800 s runs):")
	fmt.Printf("%-6s %-22s %-24s %-24s %s\n",
		"proto", "params", "energy J/win (sim/model)", "delay s (sim/model)", "delivery")
	for _, cfg := range configs {
		sc := scenario
		sc.SampleInterval = cfg.interval
		rep, err := cli.Simulate(context.Background(), edmac.SimulateRequest{
			Protocol: cfg.protocol, Scenario: &sc, Params: cfg.params,
			Options: edmac.SimOptions{Duration: 1800, Seed: 7}, Validate: true,
		})
		if err != nil {
			log.Fatalf("%s: %v", cfg.protocol, err)
		}
		m, a := rep.Sim, rep.Analytic
		fmt.Printf("%-6s %-22s %-24s %-24s %.3f\n",
			cfg.protocol, paramString(cfg.params),
			fmt.Sprintf("%.4g / %.4g (x%s)", m.BottleneckEnergy, a.Energy, ratio(a.EnergyRatio)),
			fmt.Sprintf("%.4g / %.4g (x%s)", m.OuterRingDelay, a.Delay, ratio(a.DelayRatio)),
			m.DeliveryRatio)
	}
	fmt.Println("\nRatios near 1.00 mean the closed-form model matches the measured system;")
	fmt.Println("the models are collision-free and ring-averaged, so a ±2.5x band is the target.")
}

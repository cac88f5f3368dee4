// T-factory: the §5.2/§5.3 story in executable form. Magic-state
// distillation dominates logical traffic; its loop bodies are deterministic,
// so the MCE's software-managed instruction cache replays them from a
// one-time load and the global bus carries only batched run tokens.
//
//	go run ./examples/tfactory
package main

import (
	"fmt"
	"log"

	"quest/internal/core"
	"quest/internal/distill"
)

func main() {
	fmt.Println("Magic-state distillation and the logical instruction cache")
	fmt.Println("===========================================================")

	// The 15-to-1 protocol's error suppression.
	fmt.Println("\n15-to-1 distillation (p_out = 35·p_in³):")
	pin := distill.RawStateError(1e-4)
	fmt.Printf("  raw injected state error: %.1e\n", pin)
	for r := 1; r <= 3; r++ {
		fmt.Printf("  after %d round(s): %.2e  (cost: %.0f logical instructions/state)\n",
			r, distill.OutputErrorAfter(pin, r), distill.InstructionsPerState(r))
	}

	// The deterministic loop body that makes caching work.
	body := distill.RoundCircuit()
	fmt.Printf("\none distillation round = %d logical instructions, deterministic control flow\n", len(body))
	fmt.Printf("first instructions: %v %v %v ... last: %v\n", body[0], body[1], body[2], body[len(body)-1])

	// Workload-level impact: questbench's Figure 13 table.
	fmt.Println("\nT-factory overhead per workload (Figure 13):")
	fig13, ok := core.ExperimentNamed("fig13")
	if !ok {
		log.Fatal("no fig13 experiment")
	}
	tab, err := fig13.Table(core.Run{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tab.Text())

	// Cycle-level: replay the loop from the cache and measure the bus.
	fmt.Println("\ncycle-level cache replay on the simulated machine:")
	res, err := core.MachineDemo(50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d instructions retired from %d bus bytes (one load + run tokens)\n",
		res.LogicalRetired, res.QuESTBusBytes)
	fmt.Printf("  software-managed equivalent: %d bytes — measured savings %.0fx\n",
		res.BaselineBusBytes, res.MeasuredSavings)
}

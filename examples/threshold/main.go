// Threshold: exercise the full error-correction path — noisy syndrome
// extraction compiled by the surface-code layer, space-time windowed
// decoding (Appendix A.2), Pauli frame — and sweep the physical error rate
// at code distances 3 and 5. Each trial runs d noisy QECC rounds. The table
// is core.ValidationTable, the one EXPERIMENTS.md holds at 400 trials.
//
//	go run ./examples/threshold
package main

import (
	"fmt"
	"log"

	"quest/internal/core"
)

func main() {
	const trials = 300
	fmt.Println("Logical failure rate vs physical error rate (full decode path)")
	fmt.Println("================================================================")
	// workers=0 uses all cores. An empty SweepObs writes no ledger, so
	// Threshold cannot fail.
	rows, _ := core.Threshold(nil, nil, []float64{2e-3, 1e-3, 5e-4, 2e-4}, []int{3, 5}, trials, 0, core.SweepObs{})
	tab, err := core.ValidationTable(rows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tab.Text())
	fmt.Println("\nEach trial: project the lattice with clean QECC rounds, run d noisy")
	fmt.Println("rounds and one clean one, batch the defects in a d-round space-time")
	fmt.Println("window, match them with the global decoder, flush, and check the")
	fmt.Println("frame-corrected logical Z against the injected ground truth. The last")
	fmt.Println("column reports a difference between the distances only where their")
	fmt.Println("95% Wilson intervals are disjoint.")
}

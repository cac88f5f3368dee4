// Threshold: exercise the full error-correction path — noisy stabilizer
// substrate, syndrome extraction compiled by the surface-code layer,
// space-time windowed decoding (Appendix A.2), Pauli frame — and sweep the
// physical error rate to show logical failures are suppressed below
// threshold and suppressed harder at higher code distance.
//
//	go run ./examples/threshold
package main

import (
	"fmt"

	"quest/internal/core"
)

func main() {
	fmt.Println("Logical failure rate vs physical error rate (full decode path)")
	fmt.Println("================================================================")
	rates := []float64{2e-3, 1e-3, 5e-4, 2e-4}
	distances := []int{3, 5}
	// workers=0 uses all cores. An empty SweepObs writes no ledger, so
	// Threshold cannot fail.
	rows, _ := core.Threshold(nil, nil, rates, distances, 300, 0, core.SweepObs{})
	fmt.Printf("%-10s", "p_phys")
	for _, d := range distances {
		fmt.Printf("  d=%d logical-fail", d)
	}
	fmt.Println()
	byRate := map[float64][]core.ThresholdRow{}
	for _, r := range rows {
		byRate[r.PhysRate] = append(byRate[r.PhysRate], r)
	}
	for _, p := range rates {
		fmt.Printf("%-10.0e", p)
		for _, r := range byRate[p] {
			fmt.Printf("  %-17.4f", r.FailRate)
		}
		fmt.Println()
	}
	fmt.Println("\nEach trial: project the lattice, run 4 noisy QECC rounds, batch the")
	fmt.Println("defects in a d-round space-time window, match them with the global")
	fmt.Println("decoder, flush, and check the frame-corrected logical Z against the")
	fmt.Println("injected ground truth. Below threshold the d=5 column is suppressed")
	fmt.Println("relative to d=3 — the property that makes surface-code QECC (and hence")
	fmt.Println("its instruction stream) worth spending 99.999% of the machine on.")
}

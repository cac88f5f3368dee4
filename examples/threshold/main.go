// Threshold: exercise the full error-correction path — noisy syndrome
// extraction compiled by the surface-code layer, space-time windowed
// decoding (Appendix A.2), Pauli frame — and sweep the physical error rate
// at code distances 3 and 5. Each trial runs d noisy QECC rounds. For each
// rate the last column reads d=5 against d=3 off the two rows' 95% Wilson
// intervals: "d=5 below d=3" only when they are disjoint, otherwise "not
// resolved" at the trial count.
//
//	go run ./examples/threshold
package main

import (
	"fmt"

	"quest/internal/core"
)

func main() {
	const trials = 300
	fmt.Println("Logical failure rate vs physical error rate (full decode path)")
	fmt.Println("================================================================")
	rates := []float64{2e-3, 1e-3, 5e-4, 2e-4}
	distances := []int{3, 5}
	// workers=0 uses all cores. An empty SweepObs writes no ledger, so
	// Threshold cannot fail.
	rows, _ := core.Threshold(nil, nil, rates, distances, trials, 0, core.SweepObs{})
	fmt.Printf("%-10s", "p_phys")
	for _, d := range distances {
		fmt.Printf("  d=%d logical-fail", d)
	}
	fmt.Println("  d=5 against d=3")
	byRate := map[float64][]core.ThresholdRow{}
	for _, r := range rows {
		byRate[r.PhysRate] = append(byRate[r.PhysRate], r)
	}
	for _, p := range rates {
		fmt.Printf("%-10.0e", p)
		for _, r := range byRate[p] {
			fmt.Printf("  %-17.4f", r.FailRate)
		}
		fmt.Printf("  %s\n", compare(byRate[p][0], byRate[p][1], trials))
	}
	fmt.Println("\nEach trial: project the lattice with clean QECC rounds, run d noisy")
	fmt.Println("rounds and one clean one, batch the defects in a d-round space-time")
	fmt.Println("window, match them with the global decoder, flush, and check the")
	fmt.Println("frame-corrected logical Z against the injected ground truth. The last")
	fmt.Println("column reports a difference between the distances only where their")
	fmt.Println("95% Wilson intervals are disjoint.")
}

// compare reads the d=5 row against the d=3 row of one rate by their 95%
// Wilson intervals: a difference is reported only when they are disjoint.
func compare(d3, d5 core.ThresholdRow, trials int) string {
	switch {
	case d5.WilsonHi < d3.WilsonLo:
		return "d=5 below d=3"
	case d5.WilsonLo > d3.WilsonHi:
		return "d=5 above d=3"
	}
	return fmt.Sprintf("not resolved at %d trials", trials)
}

package host_test

import (
	"fmt"

	"quest/internal/host"
	"quest/internal/qasm"
)

// ExampleCompile runs the whole host pipeline on textual source.
func ExampleCompile() {
	p, err := qasm.ParseString(`
		prep0 q0
		prep0 q1
		h q0
		t q0
		cnot q0, q1
		measz q0
		measz q1
	`, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	art, err := host.Compile(p, host.DefaultOptions())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("instructions:", len(art.Exe.Program))
	fmt.Println("T count:", art.TCount)
	fmt.Println("distillation bundled:", len(art.Exe.Caches) == 1)
	fmt.Println("schedule valid:", art.Schedule.Makespan >= art.Schedule.CriticalPath)
	// Output:
	// instructions: 7
	// T count: 1
	// distillation bundled: true
	// schedule valid: true
}

package machine_test

import (
	"fmt"

	"vrcg/internal/machine"
)

// ExampleMachine_Allreduce charges one allreduce on a simulated
// 8-processor machine: the parallel time is the log2(P) fan-in the
// paper's analysis assumes.
func ExampleMachine_Allreduce() {
	m := machine.New(machine.Config{P: 8, Alpha: 1, Beta: 0, FlopTime: 0})
	m.Allreduce(1)
	fmt.Printf("rounds=%v messages=%d\n", m.MaxClock(), m.Stats().Messages)
	// Output: rounds=3 messages=24
}

// ExampleMachine_IAllreduce overlaps a reduction with local work — the
// pipelining mechanism behind the paper's Figure 1.
func ExampleMachine_IAllreduce() {
	m := machine.New(machine.Config{P: 4, Alpha: 10, Beta: 0, FlopTime: 1})
	var h machine.Handle
	m.IAllreduce(&h, 1)
	m.ComputeAll(100) // local work longer than the reduction
	before := m.MaxClock()
	m.Wait(&h) // free: the reduction finished during the work
	fmt.Printf("stalled=%v\n", m.MaxClock() != before)
	// Output: stalled=false
}

// Adaptive driving: embeds the look-ahead solver in a custom control
// loop through the public solve API — a Monitor watchdog that reports
// progress milestones, a context deadline that bounds the solve — and
// uses AutoK to size the look-ahead for a machine instead of guessing,
// the constructive form of the paper's "choose k = log N" prescription.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"vrcg/internal/machine"
	"vrcg/internal/parcg"
	"vrcg/internal/vec"
	"vrcg/solve"
	"vrcg/sparse"
)

func main() {
	// Part 1: AutoK across machines. The look-ahead must cover the
	// batched reduction with k iterations of local work; both sides
	// scale with the machine constants, so k tracks their ratio
	// (~ log2(P)*(alpha + beta*w) / (halo*alpha + flops)) rather than
	// alpha alone: cheap-compute machines need deeper look-ahead even
	// at low latency.
	a := sparse.TridiagToeplitz(4096, 4.2, -1)
	p := 256
	pt := parcg.NewPartition(a, p)
	fmt.Println("AutoK: look-ahead sized to the machine (P=256, n=4096, k covers the reduction):")
	fmt.Printf("%10s %8s\n", "alpha", "k")
	for _, alpha := range []float64{0.5, 4, 32, 256, 2048} {
		cfg := machine.Config{P: p, Alpha: alpha, Beta: 0.01, FlopTime: 0.001}
		fmt.Printf("%10.1f %8d\n", alpha, parcg.AutoK(cfg, pt, 32))
	}

	// Part 2: a Monitor watchdog — run VRCG under external observation,
	// reporting each time the residual drops by two more orders of
	// magnitude. Returning false from Observe would stop the solve.
	prob, err := sparse.VarCoeffPoisson2D(24, sparse.JumpCoefficient(100))
	if err != nil {
		log.Fatal(err)
	}
	n := prob.Dim()
	xTrue := vec.New(n)
	vec.Random(xTrue, 12)
	b := vec.New(n)
	prob.MulVec(b, xTrue)

	fmt.Printf("\nMonitor on a jump-coefficient (contrast 100) 24x24 problem, n=%d:\n", n)
	milestone := vec.Norm2(b) / 100
	res, err := solve.MustNew("vrcg").Solve(prob, b,
		solve.WithLookahead(2), solve.WithTol(1e-10),
		solve.WithMonitor(solve.MonitorFunc(func(iter int, resNorm float64) bool {
			if resNorm <= milestone {
				fmt.Printf("  iteration %4d: residual %.2e\n", iter, resNorm)
				milestone /= 100
			}
			return true
		})))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %d iterations; stats: %s\n", res.Iterations, res.Stats)

	errV := vec.New(n)
	vec.Sub(errV, res.X, xTrue)
	fmt.Printf("solution error ||x - x*|| = %.2e\n", vec.Norm2(errV))

	// Part 3: context cancellation bounds the solve — the partial
	// result comes back with an error wrapping context.Canceled, and
	// the iterate is still usable as a warm start (WithX0).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := solve.MustNew("cg").Solve(prob, b,
		solve.WithTol(1e-12), solve.WithContext(ctx),
		solve.WithMonitor(solve.MonitorFunc(func(iter int, _ float64) bool {
			if iter == 10 {
				cancel() // e.g. an external budget expired
			}
			return true
		})))
	fmt.Printf("\ncancellation demo: canceled=%v after %d iterations\n",
		errors.Is(err, context.Canceled), partial.Iterations)
	resumed, err := solve.MustNew("cg").Solve(prob, b, solve.WithTol(1e-10), solve.WithX0(partial.X))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm restart from the partial iterate: %d more iterations\n", resumed.Iterations)
}

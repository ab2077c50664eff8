// Machine simulation: charges the four algorithms' schedules on the
// simulated P-processor machine, collectives included, and sweeps the
// message latency alpha. As alpha grows, standard CG pays two
// log(P) reductions per iteration, pipelined CG hides one, s-step
// semantics amortize them, and the paper's k-deep pipeline hides them
// entirely. The solver comparison runs through the solve registry: the
// "parcg*" methods build the machine, partition, and halo internally
// from a machine configuration option.
package main

import (
	"errors"
	"fmt"
	"log"
	"math"

	"vrcg/internal/machine"
	"vrcg/internal/vec"
	"vrcg/solve"
	"vrcg/sparse"
)

func main() {
	// First, the collective itself: cost of one allreduce vs P.
	fmt.Println("Hand-rolled recursive-doubling allreduce (alpha=1, beta=0.01):")
	fmt.Printf("%8s %12s %10s\n", "P", "time", "time/log2P")
	for _, p := range []int{16, 64, 256, 1024, 4096} {
		m := machine.New(machine.DefaultConfig(p))
		m.Allreduce(1)
		lg := 0
		for v := 1; v < p; v <<= 1 {
			lg++
		}
		fmt.Printf("%8d %12.2f %10.2f\n", p, m.MaxClock(), m.MaxClock()/float64(lg))
	}
	fmt.Println("(logarithmic, as the paper's c*log(N) fan-in assumes)")

	// The solver comparison.
	a := sparse.TridiagToeplitz(4096, 4.2, -1) // kappa ~ 2.6
	p := 256
	bs := vec.New(a.Dim())
	vec.Random(bs, 3)

	fmt.Printf("\nPer-iteration parallel time, P=%d, n=%d (kappa~2.6):\n", p, a.Dim())
	fmt.Printf("%8s %10s %10s %12s %14s\n", "alpha", "CG", "PIPECG", "VRCG(k=8)", "blocking(k=8)")
	for _, alpha := range []float64{1, 4, 16, 64, 256} {
		cfg := machine.Config{P: p, Alpha: alpha, Beta: 0.01, FlopTime: 0.001}

		rate := func(method string, extra ...solve.Option) float64 {
			opts := append([]solve.Option{
				solve.WithMachineConfig(cfg), solve.WithTol(1e-6), solve.WithMaxIter(120),
			}, extra...)
			res, err := solve.MustNew(method).Solve(a, bs, opts...)
			if err != nil && !errors.Is(err, solve.ErrNotConverged) {
				log.Fatal(err)
			}
			if res == nil {
				return math.NaN()
			}
			return res.PerIterTime()
		}
		cg := rate("parcg-cg")
		pipe := rate("parcg-pipe")
		vr := rate("parcg", solve.WithLookahead(8))
		blk := rate("parcg", solve.WithLookahead(8), solve.WithBlocking(true))
		fmt.Printf("%8.0f %10.1f %10.1f %12.1f %14.1f\n", alpha, cg, pipe, vr, blk)
	}
	fmt.Println("\nShape: CG ~ 2*allreduce + matvec; PIPECG hides one reduction;")
	fmt.Println("blocking (s-step) amortizes the batch; VRCG's k-deep pipeline")
	fmt.Println("removes the reduction latency from the critical path (Figure 1).")
}

package solve_test

import (
	"fmt"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// benchRHSBlock builds nrhs distinct full-rank right-hand sides via an
// LCG so block benchmarks are not flattered by linearly dependent
// columns (a rank-deficient block deflates to a much cheaper solve).
func benchRHSBlock(n, nrhs int) [][]float64 {
	B := make([][]float64, nrhs)
	state := uint64(88172645463325252)
	for k := range B {
		col := make([]float64, n)
		for i := range col {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			col[i] = 1 + float64(state%1000)/1000
		}
		B[k] = col
	}
	return B
}

// BenchmarkBatchBlockVsIndependent is the choice a caller with eight
// right-hand sides makes by naming the method: a blockcg batch against
// a cg batch, both on sessions sharing one 2-worker pool. Both fan the
// eight solves out across the batch workers; each blockcg right-hand
// side is a width-one block solve, so the difference is block CG's
// ledger — a third reduction an iteration, and no update fused with a
// product or an inner product — against cg's.
func BenchmarkBatchBlockVsIndependent(b *testing.B) {
	for _, grid := range []int{16, 48, 96} {
		a := sparse.Poisson2D(grid)
		n := a.Dim()
		B := benchRHSBlock(n, 8)
		pool := sparse.NewPool(2)
		for _, method := range []string{"blockcg", "cg"} {
			b.Run(fmt.Sprintf("%s/n%d", method, n), func(b *testing.B) {
				s, err := solve.NewSession(method, a, solve.WithTol(1e-10), solve.WithPool(pool))
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.SolveMany(B); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(B))*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
			})
		}
		pool.Close()
	}
}

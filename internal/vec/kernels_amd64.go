package vec

// useAVX2 selects the assembly bodies in kernels_amd64.s, once, from
// what the CPU and the OS report. Under the race detector the Go bodies
// run: assembly is invisible to it, and the pooled-kernel tests rely on
// it seeing every element access of a chunk.
var useAVX2 = !raceEnabled && hasAVX2()

func hasAVX2() bool

// The assembly bodies. Each trusts its arguments: every operand holds at
// least as many elements as the first slice (for diaRowsAVX2, see
// DIARows; for dotsAccAVX2 and combineAVX2, dotsRange and combineRange;
// for triRunAVX2, TriSweep.Solve and the checks NewTriSweeps
// makes once), which the Go callers establish before the call.

//go:noescape
func dotLeafAVX2(x, y []float64) float64

//go:noescape
func dotsAccAVX2(acc *[4 * dotsPass]float64, ops *[2 * dotsPass]*float64, groups, off, n int)

//go:noescape
func dotPairLeafAVX2(x, y, z []float64) (xy, xz float64)

//go:noescape
func fusedCGLeafAVX2(alpha float64, p, ap, x, r []float64) float64

//go:noescape
func pipeLeafAVX2(alpha, beta float64, r, w, n, p, s, q, x []float64) (rr, wr float64)

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func combineAVX2(dst, init []float64, coef *float64, xs [][]float64, lo int)

//go:noescape
func xpayAVX2(x []float64, alpha float64, y []float64)

//go:noescape
func scaleAVX2(alpha float64, x []float64)

//go:noescape
func diaRowsAVX2(out, slab []float64, base []int, x []float64, lo int, offs []int, scalar uint64, src []float64, beta float64, ahead, stop int)

//go:noescape
func triRunAVX2(x []float64, lo int, d, vals []float64, pos []int32, width int, w float64)

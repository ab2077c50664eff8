//go:build !amd64

package vec

// useAVX2 is pinned false where there is no assembly: the Go bodies are
// the only path, and the stubs below exist so the dispatch compiles.
const useAVX2 = false

const noAssembly = "vec: no assembly bodies on this platform"

func dotLeafAVX2(x, y []float64) float64 { panic(noAssembly) }
func dotsAccAVX2(acc *[4 * dotsPass]float64, ops *[2 * dotsPass]*float64, groups, off, n int) {
	panic(noAssembly)
}
func dotPairLeafAVX2(x, y, z []float64) (xy, xz float64)           { panic(noAssembly) }
func fusedCGLeafAVX2(alpha float64, p, ap, x, r []float64) float64 { panic(noAssembly) }
func pipeLeafAVX2(alpha, beta float64, r, w, n, p, s, q, x []float64) (rr, wr float64) {
	panic(noAssembly)
}
func axpyAVX2(alpha float64, x, y []float64) { panic(noAssembly) }
func combineAVX2(dst, init []float64, coef *float64, xs [][]float64, lo int) {
	panic(noAssembly)
}
func xpayAVX2(x []float64, alpha float64, y []float64) { panic(noAssembly) }
func scaleAVX2(alpha float64, x []float64)             { panic(noAssembly) }
func diaRowsAVX2(out, slab []float64, base []int, x []float64, lo int, offs []int, scalar uint64, src []float64, beta float64, ahead, stop int) {
	panic(noAssembly)
}
func triRunAVX2(x []float64, lo int, d, vals []float64, pos []int32, width int, w float64) {
	panic(noAssembly)
}

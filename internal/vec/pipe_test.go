package vec

import (
	"fmt"
	"math"
	"testing"
)

// pipeOperands is PipeUpdate's argument order.
var pipeOperands = [7]string{"r", "w", "n", "p", "s", "q", "x"}

// pipeCalls is the definition PipeUpdate is held to: the six calls a
// Ghysels–Vanroose step made before the leaf existed, then its DotPair.
func pipeCalls(alpha, beta float64, o [][]float64) (rr, wr float64) {
	r, w, n, p, s, q, x := o[0], o[1], o[2], o[3], o[4], o[5], o[6]
	Xpay(r, beta, p)
	Xpay(w, beta, s)
	Xpay(n, beta, q)
	Axpy(alpha, p, x)
	Axpy(-alpha, s, r)
	Axpy(-alpha, q, w)
	return DotPair(r, r, w)
}

// pipeOnGoLeaf is PipeUpdate with the Go leaf under it whatever the
// process runs, and the block partials combined by combineTree rather
// than by pipeTree's recursion — which must be the same tree.
func pipeOnGoLeaf(alpha, beta float64, o [][]float64) (rr, wr float64) {
	m := len(o[0])
	if alpha == 0 || m == 0 {
		return PipeUpdate(alpha, beta, o[0], o[1], o[2], o[3], o[4], o[5], o[6])
	}
	var pa, pb []float64
	for lo := 0; lo < m; lo += BlockLen {
		hi := min(m, lo+BlockLen)
		a, b := pipeLeafGo(alpha, beta, o[0][lo:hi], o[1][lo:hi], o[2][lo:hi], o[3][lo:hi], o[4][lo:hi], o[5][lo:hi], o[6][lo:hi])
		pa, pb = append(pa, a), append(pb, b)
	}
	return combineTree(pa), combineTree(pb)
}

// checkPipeUpdate runs the six calls, PipeUpdate and PipeUpdate's Go leaf
// on equal copies of seven guarded operands (see checkLeafKernel) and
// reports the first difference from the six calls: a sum, an element, or
// a sentinel either side of any operand.
func checkPipeUpdate(n, off int, alpha, beta float64, seed uint64, mode int) error {
	sides := []struct {
		name string
		run  func(alpha, beta float64, o [][]float64) (float64, float64)
	}{
		{"six calls", pipeCalls},
		{"PipeUpdate", func(a, b float64, o [][]float64) (float64, float64) {
			return PipeUpdate(a, b, o[0], o[1], o[2], o[3], o[4], o[5], o[6])
		}},
		{"Go leaf", pipeOnGoLeaf},
	}
	var bufs [3][7][]float64
	var sums [3][2]float64
	for si, side := range sides {
		ops := make([][]float64, 7)
		for j := range ops {
			bufs[si][j], ops[j] = guardedOperand(n, off, seed+uint64(j)*0x9e37, mode)
		}
		sums[si][0], sums[si][1] = side.run(alpha, beta, ops)
	}
	for si := 1; si < len(sides); si++ {
		for k, want := range sums[0] {
			if got := sums[si][k]; !sameFloat(want, got) {
				return fmt.Errorf("%s sum %d: %x (%g), six calls %x (%g)", sides[si].name, k,
					math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
		for j, name := range pipeOperands {
			if err := sameGuarded(bufs[0][j], bufs[si][j], n, off); err != nil {
				return fmt.Errorf("%s: six calls, %s: %w", name, sides[si].name, err)
			}
		}
	}
	return nil
}

// pipeScalars are the step lengths and direction coefficients the table
// crosses: tiny, ±1, an ordinary one, the ±0 that Axpy skips on (and
// Xpay does not), and the non-finite ones a broken-down solve produces.
var pipeScalars = []float64{1e-300, 1, -1, 0.37, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// TestPipeUpdateBitwise: PipeUpdate — the assembly leaf where the process
// runs it, and the Go leaf always — returns the bits of three Xpay, three
// Axpy and DotPair and writes exactly the elements they write: every
// length through two blocks and a tail (so every n mod 4, and the tree's
// first split) with the scalars and the value mix in rotation, and on a few lengths every
// alignment and every pair of scalars over every value mix.
func TestPipeUpdateBitwise(t *testing.T) {
	ns := len(pipeScalars)
	for n := 0; n <= 2*BlockLen+5; n++ {
		alpha, beta, mode := pipeScalars[n%ns], pipeScalars[n/ns%ns], n/(ns*ns)%leafModes
		if err := checkPipeUpdate(n, n%4, alpha, beta, uint64(n), mode); err != nil {
			t.Fatalf("n=%d alpha=%g beta=%g mode=%d: %v", n, alpha, beta, mode, err)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 14, BlockLen + 1} {
		for off := 0; off < 4; off++ {
			for ai, alpha := range pipeScalars {
				for bi, beta := range pipeScalars {
					for mode := 0; mode < leafModes; mode++ {
						seed := uint64(n)<<20 | uint64(off)<<16 | uint64(ai)<<12 | uint64(bi)<<8 | uint64(mode)
						if err := checkPipeUpdate(n, off, alpha, beta, seed, mode); err != nil {
							t.Fatalf("n=%d off=%d alpha=%g beta=%g mode=%d: %v", n, off, alpha, beta, mode, err)
						}
					}
				}
			}
		}
	}
}

// FuzzPipeUpdateLeaf holds the same oracle to fuzzed shapes and scalars.
func FuzzPipeUpdateLeaf(f *testing.F) {
	f.Add(uint16(0), uint8(0), 0.37, 0.5, uint64(1))
	f.Add(uint16(7), uint8(1), -1.0, 0.0, uint64(2))
	f.Add(uint16(1025), uint8(3), 1e-300, -2.5, uint64(3))
	f.Add(uint16(4099), uint8(2), 0.0, 1.0, uint64(4))
	f.Add(uint16(2051), uint8(1), math.Inf(1), math.NaN(), uint64(5))
	f.Fuzz(func(t *testing.T, n uint16, off uint8, alpha, beta float64, seed uint64) {
		mode := int(seed % leafModes)
		if err := checkPipeUpdate(int(n)%5000, int(off)%4, alpha, beta, seed, mode); err != nil {
			t.Fatalf("n=%d off=%d alpha=%g beta=%g mode=%d: %v", int(n)%5000, int(off)%4, alpha, beta, mode, err)
		}
	})
}

// TestPipeUpdateChecksAndAllocs: a short operand panics before any
// element moves, and the leaf allocates nothing.
func TestPipeUpdateChecksAndAllocs(t *testing.T) {
	const n = 3*BlockLen + 7
	o := make([][]float64, 7)
	for j := range o {
		o[j] = New(n)
		Random(o[j], uint64(j)+1)
	}
	for j := range o {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s: no panic", pipeOperands[j])
				}
			}()
			c := append([][]float64(nil), o...)
			c[j] = c[j][:n-1]
			PipeUpdate(0.5, 0.5, c[0], c[1], c[2], c[3], c[4], c[5], c[6])
		}()
	}
	if avg := testing.AllocsPerRun(10, func() {
		leafSink, _ = PipeUpdate(1e-9, 0.5, o[0], o[1], o[2], o[3], o[4], o[5], o[6])
	}); avg != 0 {
		t.Errorf("PipeUpdate: %v allocs per call", avg)
	}
}

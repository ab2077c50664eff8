package vec

import (
	"fmt"
	"math"
	"testing"
)

// leafKernel is one kernel of the differential test and of
// BenchmarkLeaf: its Go body and its assembly body behind one signature.
// ops are the nops operands in argument order; s0, s1 are whatever the
// kernel reduces (zero for the elementwise ones, which take a whole
// vector where the reductions are called once per BlockLen block).
// traffic is the operand traffic per element, in float64s read plus
// float64s written; benchAlpha a scalar that keeps the destinations
// bounded however often the benchmark repeats the call.
type leafKernel struct {
	name            string
	nops, traffic   int
	elementwise     bool
	benchAlpha      float64
	goBody, asmBody func(alpha float64, ops [][]float64) (s0, s1 float64)
}

var leafKernels = []leafKernel{
	{"dot", 2, 2, false, 0,
		func(_ float64, o [][]float64) (float64, float64) { return dotLeafGo(o[0], o[1]), 0 },
		func(_ float64, o [][]float64) (float64, float64) { return dotLeafAVX2(o[0], o[1]), 0 }},
	{"dotpair", 3, 3, false, 0,
		func(_ float64, o [][]float64) (float64, float64) { return dotPairLeafGo(o[0], o[1], o[2]) },
		func(_ float64, o [][]float64) (float64, float64) { return dotPairLeafAVX2(o[0], o[1], o[2]) }},
	{"fusedcg", 4, 6, false, 1e-9,
		func(a float64, o [][]float64) (float64, float64) { return fusedCGLeafGo(a, o[0], o[1], o[2], o[3]), 0 },
		func(a float64, o [][]float64) (float64, float64) {
			return fusedCGLeafAVX2(a, o[0], o[1], o[2], o[3]), 0
		}},
	{"axpy", 2, 3, true, 1e-9,
		func(a float64, o [][]float64) (float64, float64) { axpyGo(a, o[0], o[1]); return 0, 0 },
		func(a float64, o [][]float64) (float64, float64) { axpyAVX2(a, o[0], o[1]); return 0, 0 }},
	{"xpay", 2, 3, true, 0.5,
		func(a float64, o [][]float64) (float64, float64) { xpayGo(o[0], a, o[1]); return 0, 0 },
		func(a float64, o [][]float64) (float64, float64) { xpayAVX2(o[0], a, o[1]); return 0, 0 }},
	{"scale", 1, 2, true, 1,
		func(a float64, o [][]float64) (float64, float64) { scaleGo(a, o[0]); return 0, 0 },
		func(a float64, o [][]float64) (float64, float64) { scaleAVX2(a, o[0]); return 0, 0 }},
}

// Operand value mixes of the differential test.
const (
	leafPlain     = iota // uniform in [-1, 1): every bit of every sum depends on the order of the adds
	leafEdge             // one value in eight is ±0, a subnormal, or large enough that products overflow
	leafNonFinite        // as leafEdge, with ±Inf and NaN among the inputs
	leafModes
)

var leafEdgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320, 0x1p-1022,
	1e308, -1e308, 1.5e154, -1.5e154, 1e-200, -1e200,
}

var leafNonFiniteValues = []float64{math.Inf(1), math.Inf(-1), math.NaN()}

// leafAlphas are the scalars the table test crosses every shape with.
var leafAlphas = []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, 0.37}

func fillLeafOperand(v []float64, seed uint64, mode int) {
	Random(v, seed)
	if mode == leafPlain {
		return
	}
	s := seed ^ 0xabcdef
	for i := range v {
		r := splitmix64(&s)
		if r%8 != 0 {
			continue
		}
		r >>= 3
		if mode == leafNonFinite && r%4 == 0 {
			v[i] = leafNonFiniteValues[(r>>2)%uint64(len(leafNonFiniteValues))]
		} else {
			v[i] = leafEdgeValues[(r>>2)%uint64(len(leafEdgeValues))]
		}
	}
}

// sameFloat is the oracle's equality: the same bits, or both NaN (a
// NaN's payload depends on operand order, which neither body defines).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// leafGuard is the run of sentinels on each side of every operand: wider
// than the widest trip of any body, so a store past either end of a
// destination lands on one.
const leafGuard = 24

var leafSentinel = math.Float64frombits(0x7ff8_dead_beef_0001)

// checkLeafKernel runs both bodies of k on equal operands of length n
// that start off elements into their backing arrays (so they are
// 8-byte- but, for three offsets in four, not 32-byte-aligned) and
// reports the first difference: a returned sum, an element of any
// operand (a source must come back untouched), or a sentinel.
func checkLeafKernel(k leafKernel, n, off int, alpha float64, seed uint64, mode int) error {
	bufs := make([][2][]float64, k.nops) // [operand][go, asm] backing arrays
	ops := [2][][]float64{make([][]float64, k.nops), make([][]float64, k.nops)}
	for j := range bufs {
		for side := range bufs[j] {
			bufs[j][side], ops[side][j] = guardedOperand(n, off, seed+uint64(j)*0x9e37, mode)
		}
	}
	w0, w1 := k.goBody(alpha, ops[0])
	g0, g1 := k.asmBody(alpha, ops[1])
	if !sameFloat(w0, g0) || !sameFloat(w1, g1) {
		return fmt.Errorf("sums: go %x %x (%g %g), asm %x %x (%g %g)",
			math.Float64bits(w0), math.Float64bits(w1), w0, w1,
			math.Float64bits(g0), math.Float64bits(g1), g0, g1)
	}
	for j := range bufs {
		if err := sameGuarded(bufs[j][0], bufs[j][1], n, off); err != nil {
			return fmt.Errorf("operand %d: go, asm: %w", j, err)
		}
	}
	return nil
}

// guardedOperand returns an n-element operand filled per mode that starts
// leafGuard+off elements into its backing array, sentinels either side.
func guardedOperand(n, off int, seed uint64, mode int) (buf, v []float64) {
	buf = make([]float64, leafGuard+off+n+leafGuard)
	Fill(buf, leafSentinel)
	v = buf[leafGuard+off : leafGuard+off+n : leafGuard+off+n]
	fillLeafOperand(v, seed, mode)
	return buf, v
}

// sameGuarded reports the first place the backing array got differs from
// want: an element of the operand, or a sentinel of got overwritten.
func sameGuarded(want, got []float64, n, off int) error {
	for i := range want {
		if i < leafGuard+off || i >= leafGuard+off+n {
			if math.Float64bits(got[i]) != math.Float64bits(leafSentinel) {
				return fmt.Errorf("sentinel at %d overwritten with %g", i-leafGuard-off, got[i])
			}
		} else if !sameFloat(want[i], got[i]) {
			return fmt.Errorf("element %d: %x (%g), %x (%g)", i-leafGuard-off,
				math.Float64bits(want[i]), want[i], math.Float64bits(got[i]), got[i])
		}
	}
	return nil
}

func needAssembly(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("this process runs the portable bodies (no AVX2, or -race): nothing to compare")
	}
}

// leafLengths are 0-67 — every tail of every trip width, several trips
// deep — and the lengths around one block and past four.
func leafLengths() []int {
	ns := []int{1023, 1024, 1025, 4099}
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return ns
}

// TestLeafKernelsBitwise is the contract of kernels_amd64.s made
// executable: on every shape, alignment, scalar and value mix, each
// assembly body returns the bits its Go body returns and writes exactly
// the elements it writes.
func TestLeafKernelsBitwise(t *testing.T) {
	needAssembly(t)
	for _, k := range leafKernels {
		for _, n := range leafLengths() {
			for off := 0; off < 4; off++ {
				for ai, alpha := range leafAlphas {
					for mode := 0; mode < leafModes; mode++ {
						seed := uint64(n)<<16 | uint64(off)<<8 | uint64(ai)<<4 | uint64(mode)
						if err := checkLeafKernel(k, n, off, alpha, seed, mode); err != nil {
							t.Fatalf("%s n=%d off=%d alpha=%g mode=%d: %v", k.name, n, off, alpha, mode, err)
						}
					}
				}
			}
		}
	}
}

// FuzzLeafKernels holds the same oracle to fuzzed (kernel, length,
// offset, scalar, seed) tuples.
func FuzzLeafKernels(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), 0.37, uint64(1))
	f.Add(uint8(1), uint16(17), uint8(1), -1.0, uint64(2))
	f.Add(uint8(2), uint16(1025), uint8(3), 1e-300, uint64(3))
	f.Add(uint8(3), uint16(4099), uint8(2), 0.0, uint64(4))
	f.Add(uint8(4), uint16(63), uint8(1), math.Inf(1), uint64(5))
	f.Add(uint8(5), uint16(5), uint8(3), -2.5e200, uint64(6))
	f.Fuzz(func(t *testing.T, kernel uint8, n uint16, off uint8, alpha float64, seed uint64) {
		needAssembly(t)
		k := leafKernels[int(kernel)%len(leafKernels)]
		mode := int(seed % leafModes)
		if err := checkLeafKernel(k, int(n)%5000, int(off)%4, alpha, seed, mode); err != nil {
			t.Fatalf("%s n=%d off=%d alpha=%g mode=%d: %v", k.name, int(n)%5000, int(off)%4, alpha, mode, err)
		}
	})
}

// TestWholeVectorKernelsChunked: Axpy, Xpay and Scale hand the assembly
// at most asmChunk elements per call; the pieces must tile the vector.
func TestWholeVectorKernelsChunked(t *testing.T) {
	for _, n := range []int{asmChunk - 1, asmChunk, asmChunk + 1, 2*asmChunk + 5} {
		x, y := New(n), New(n)
		Random(x, uint64(n))
		Random(y, uint64(n)+1)
		want, got := Clone(y), Clone(y)
		axpyGo(0.37, x, want)
		Axpy(0.37, x, got)
		if !bitsEqual(want, got) {
			t.Fatalf("n=%d: Axpy differs from its Go body", n)
		}
		xpayGo(x, -1.25, want)
		Xpay(x, -1.25, got)
		if !bitsEqual(want, got) {
			t.Fatalf("n=%d: Xpay differs from its Go body", n)
		}
		scaleGo(3.5, want)
		Scale(3.5, got)
		if !bitsEqual(want, got) {
			t.Fatalf("n=%d: Scale differs from its Go body", n)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestDIARowsChecksBeforeTheCall: a diagonal that would index outside
// slab or x panics in Go; the assembly never sees it. Bases are free to
// be negative or to overlap — a folded band's are — so long as every
// row read lands inside slab.
func TestDIARowsChecksBeforeTheCall(t *testing.T) {
	needAssembly(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	out, slab, x := make([]float64, 8), make([]float64, 16), make([]float64, 12)
	if !DIARows(out, slab, []int{-2, 6}, x, 2, []int{-2, 2}, 0, nil, 0, 0) {
		t.Fatal("in-range call refused")
	}
	mustPanic("x before its start", func() { DIARows(out, slab, []int{0, 6}, x, 2, []int{-3, 2}, 0, nil, 0, 0) })
	mustPanic("x past its end", func() { DIARows(out, slab, []int{0, 6}, x, 2, []int{-2, 3}, 0, nil, 0, 0) })
	mustPanic("slab past its end", func() { DIARows(out, slab, []int{0, 7}, x, 2, []int{-2, 2}, 0, nil, 0, 0) })
	mustPanic("negative base before slab", func() { DIARows(out, slab, []int{-3, 6}, x, 2, []int{-2, 2}, 0, nil, 0, 0) })
	mustPanic("mirrored base one row past slab", func() { DIARows(out, slab, []int{9 - 2, 0}, x, 2, []int{-2, 0}, 0, nil, 0, 0) })
	mustPanic("fewer bases than diagonals", func() { DIARows(out, slab, []int{0}, x, 2, []int{-2, 2}, 0, nil, 0, 0) })
	// Rows [30, 38) a lead of 2 ahead owe the update x[32:64] (Carry).
	long := make([]float64, 72)
	mustPanic("update source shorter than what the rows owe", func() { DIARows(out, slab, []int{-30, -30}, long, 30, []int{-2, 2}, 0, make([]float64, 63), 1, 2) })
	if !DIARows(out, slab, []int{-30, -30}, long, 30, []int{-2, 2}, 0, make([]float64, 64), 1, 2) {
		t.Fatal("in-range update refused")
	}
}

// TestDIARowsAliasedBases runs diaRowsAVX2 against the sum it stands for
// with diagonals that share a stream: two read one run of slab at a
// shift of 1, 4 and 64 rows, as a folded band's subdiagonal reads its
// mirror, a third sits apart, at row counts around every trip size.
func TestDIARowsAliasedBases(t *testing.T) {
	needAssembly(t)
	const lo, pad = 70, 80
	var counts []int
	for _, r := range [][2]int{{0, 17}, {63, 65}, {1023, 1025}} {
		for n := r[0]; n <= r[1]; n++ {
			counts = append(counts, n)
		}
	}
	for _, shift := range []int{1, 4, 64} {
		for _, rows := range counts {
			n := lo + rows + pad
			slab, x := New(2*n), New(n)
			Random(slab, uint64(shift*4096+rows)+1)
			Random(x, uint64(rows)+7)
			slab[lo+3], x[lo+1] = math.Copysign(0, -1), math.Inf(1)
			base := []int{-shift, 0, n}
			offs := []int{-shift, 0, shift}
			want := make([]float64, rows)
			for i := range want {
				var s float64
				for d, k := range offs {
					s += slab[base[d]+lo+i] * x[lo+k+i]
				}
				want[i] = s
			}
			got := make([]float64, rows)
			Fill(got, math.NaN())
			if !DIARows(got, slab, base, x, lo, offs, 0, nil, 0, 0) {
				t.Fatal("in-range call refused")
			}
			if !bitsEqual(got, want) {
				t.Fatalf("shift %d, %d rows: assembly differs from the Go sum", shift, rows)
			}
		}
	}
}

// TestKernelsRaceRule: a -race build runs the Go bodies whatever the CPU
// has, and says so.
func TestKernelsRaceRule(t *testing.T) {
	got := Kernels()
	if got != "avx2" && got != "portable" {
		t.Fatalf("Kernels() = %q", got)
	}
	if raceEnabled && got != "portable" {
		t.Fatalf("Kernels() = %q under the race detector, which cannot see assembly", got)
	}
}

var leafSink float64

// BenchmarkLeaf times both bodies of every leaf kernel where the solvers
// run them: on one BlockLen block that stays in L1, and over twelve
// 4096-vectors visited in rotation (384 KB: L2-resident, never L1), the
// reductions one block per call as their trees call them. MB/s is
// operand traffic, reads plus writes.
func BenchmarkLeaf(b *testing.B) {
	const nvec, n = 12, 4 * BlockLen
	vecs := make([][]float64, nvec)
	for j := range vecs {
		vecs[j] = New(n)
		Random(vecs[j], uint64(j)+1)
	}
	for _, k := range leafKernels {
		alpha := k.benchAlpha
		for _, body := range []struct {
			name string
			run  func(alpha float64, ops [][]float64) (float64, float64)
		}{{"go", k.goBody}, {"avx2", k.asmBody}} {
			ops := make([][]float64, k.nops)
			b.Run(k.name+"/L1/"+body.name, func(b *testing.B) {
				if body.name == "avx2" {
					needAssembly(b)
				}
				for j := range ops {
					ops[j] = vecs[j][:BlockLen]
				}
				b.SetBytes(int64(8 * k.traffic * BlockLen))
				for i := 0; i < b.N; i++ {
					leafSink, _ = body.run(alpha, ops)
				}
			})
			b.Run(k.name+"/L2/"+body.name, func(b *testing.B) {
				if body.name == "avx2" {
					needAssembly(b)
				}
				b.SetBytes(int64(8 * k.traffic * n))
				step := BlockLen
				if k.elementwise {
					step = n
				}
				for i := 0; i < b.N; i++ {
					for b0 := 0; b0 < n; b0 += step {
						for j := range ops {
							ops[j] = vecs[(i*k.nops+j)%nvec][b0 : b0+step]
						}
						leafSink, _ = body.run(alpha, ops)
					}
				}
			})
		}
	}
}

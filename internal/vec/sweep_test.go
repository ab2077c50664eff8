package vec

import (
	"fmt"
	"math"
	"testing"
)

// bandOp is the operator of the sweep tests: a few diagonals with a value
// per (diagonal, row), every row summed in ascending offset order from +0
// — a RowKernel whose rows do not care how they are cut into ranges, and
// whose reach is its largest positive offset.
type bandOp struct {
	n    int
	offs []int       // ascending, each in (-n, n)
	vals [][]float64 // vals[d][i] multiplies x[i+offs[d]]
}

func newBandOp(n int, offs []int, seed uint64, mode int) *bandOp {
	op := &bandOp{n: n, offs: offs, vals: make([][]float64, len(offs))}
	for d := range offs {
		op.vals[d] = New(n)
		fillLeafOperand(op.vals[d], seed+uint64(d)*0x51ed, mode)
	}
	return op
}

func (op *bandOp) rows(lo, hi int, dst, x Vector) {
	for i := lo; i < hi; i++ {
		var s float64
		for d, k := range op.offs {
			if j := i + k; j >= 0 && j < op.n {
				s += op.vals[d][i] * x[j]
			}
		}
		dst[i] = s
	}
}

func (op *bandOp) reach() int {
	r := 0
	for _, k := range op.offs {
		r = max(r, k)
	}
	return r
}

// checkDirectionSweep runs the sweep at a granule of g blocks against the
// three whole-vector calls it stands in for — Xpay (when pending), every
// row of the product, Dot — and reports the first bit that differs in p,
// in ap or in the returned sum. reach is what the sweep is told; anything
// at or above the operator's own is a true statement about it.
func checkDirectionSweep(op *bandOp, g, reach int, pending bool, beta float64, seed uint64, mode int) error {
	n := op.n
	src, p := New(n), New(n)
	fillLeafOperand(src, seed^0x1111, mode)
	fillLeafOperand(p, seed^0x2222, mode)

	wantP, wantAP := Clone(p), New(n)
	if pending {
		Xpay(src, beta, wantP)
	}
	op.rows(0, n, wantAP, wantP)
	want := Dot(wantP, wantAP)

	gotP, gotAP := Clone(p), New(n)
	Fill(gotAP, leafSentinel)
	part := New(nblocks(n) + 1)
	Fill(part, leafSentinel)
	var in Vector
	if pending {
		in = Clone(src)
	}
	got := directionSweep(g*BlockLen, op.rows, reach, in, beta, gotP, gotAP, part, nil)

	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("(p,ap): sweep %x (%g), whole-vector %x (%g)", math.Float64bits(got), got, math.Float64bits(want), want)
	}
	for i := range wantP {
		if math.Float64bits(gotP[i]) != math.Float64bits(wantP[i]) {
			return fmt.Errorf("p[%d]: sweep %x (%g), whole-vector %x (%g)", i, math.Float64bits(gotP[i]), gotP[i], math.Float64bits(wantP[i]), wantP[i])
		}
		if math.Float64bits(gotAP[i]) != math.Float64bits(wantAP[i]) {
			return fmt.Errorf("ap[%d]: sweep %x (%g), whole-vector %x (%g)", i, math.Float64bits(gotAP[i]), gotAP[i], math.Float64bits(wantAP[i]), wantAP[i])
		}
	}
	if pending && !bitsEqual(in, src) {
		return fmt.Errorf("the sweep wrote its source")
	}
	if math.Float64bits(part[nblocks(n)]) != math.Float64bits(leafSentinel) {
		return fmt.Errorf("the sweep wrote past its %d partials", nblocks(n))
	}
	return nil
}

// sweepOffsets are the offset sets of one nominal reach: entries above
// the diagonal only, below it only (an operator of reach 0 however far
// back it reads), and both; clipped into the matrix, so a reach of n or
// more is told to the sweep without the operator having it.
func sweepOffsets(n, reach int) map[string][]int {
	k := min(reach, n-1)
	if k == 0 {
		return map[string][]int{"diagonal": {0}}
	}
	sets := map[string][]int{"forward": {0, k}, "backward": {-k, 0}, "both": {-k, 0, k}}
	if k > 1 {
		sets["both"] = []int{-k, -1, 0, 1, k}
	}
	return sets
}

// TestDirectionSweepBitwise: at every length around a block, a granule
// and several; every reach from none to everything; entries on either
// side of the diagonal; granules of one, two and four blocks; an update
// pending or not; and the leaf tests' three value mixes (±0, subnormals,
// overflow, ±Inf, NaN), the sweep leaves the bits the three whole-vector
// calls leave.
func TestDirectionSweepBitwise(t *testing.T) {
	for _, n := range []int{1, 1023, 1024, 1025, 4096, 4097, 20000} {
		for _, reach := range []int{0, 1, 63, 64, 1024, 4095, n, n + 5000} {
			for name, offs := range sweepOffsets(n, reach) {
				told := reach
				if name == "backward" {
					told = 0
				}
				for _, g := range []int{1, 2, 4} {
					for _, pending := range []bool{false, true} {
						for mode := 0; mode < leafModes; mode++ {
							seed := uint64(n)<<20 | uint64(reach)<<4 | uint64(g)
							op := newBandOp(n, offs, seed, mode)
							beta := leafAlphas[(n+reach+g+mode)%len(leafAlphas)]
							if err := checkDirectionSweep(op, g, told, pending, beta, seed, mode); err != nil {
								t.Fatalf("n=%d reach=%d (%s %v) granule=%d pending=%v mode=%d beta=%g: %v",
									n, told, name, offs, g, pending, mode, beta, err)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzDirectionSweep holds the same oracle to fuzzed lengths, offset
// sets, granules and values.
func FuzzDirectionSweep(f *testing.F) {
	f.Add(uint16(1), int16(0), int16(0), int16(0), uint8(0), true, 0.5, uint64(1))
	f.Add(uint16(1025), int16(-1), int16(1), int16(33), uint8(1), true, -1.0, uint64(2))
	f.Add(uint16(4097), int16(-64), int16(64), int16(1024), uint8(2), false, 0.37, uint64(3))
	f.Add(uint16(20000), int16(-4096), int16(4095), int16(1), uint8(0), true, 1e-300, uint64(4))
	f.Add(uint16(9000), int16(-8999), int16(8999), int16(0), uint8(3), true, math.Inf(1), uint64(5))
	f.Fuzz(func(t *testing.T, n16 uint16, k0, k1, k2 int16, granule uint8, pending bool, beta float64, seed uint64) {
		n := int(n16)%20001 + 1
		set := map[int]bool{}
		for _, k := range []int16{k0, k1, k2} {
			set[int(k)%n] = true
		}
		offs := make([]int, 0, len(set))
		for k := -n + 1; k < n; k++ {
			if set[k] {
				offs = append(offs, k)
			}
		}
		g := []int{1, 2, 4, 16}[granule%4]
		mode := int(seed % leafModes)
		op := newBandOp(n, offs, seed, mode)
		// The operator's own reach, and — every other seed — a looser one.
		reach := op.reach() + int(seed>>8%2)*int(seed>>16%5000)
		if err := checkDirectionSweep(op, g, reach, pending, beta, seed, mode); err != nil {
			t.Fatalf("n=%d offsets=%v reach=%d granule=%d pending=%v mode=%d beta=%g: %v", n, offs, reach, g, pending, mode, beta, err)
		}
	})
}

// TestDirectionSweepLags: the product of a granule runs as soon as p is
// final reach elements past it and no later — which is the whole point:
// every bit test above would pass on a sweep that finished the update
// before it started the product, and that sweep crosses memory twice.
func TestDirectionSweepLags(t *testing.T) {
	const g, n = BlockLen, 16 * BlockLen
	for _, reach := range []int{0, 1, g, g + 1, 3*g - 1} {
		src, p, ap := New(n), New(n), New(n)
		Fill(src, 1) // p = 1 + 0*p: an element is 1 once updated, 0 before
		var calls int
		rows := func(lo, hi int, dst, x Vector) {
			calls++
			if lo != (calls-1)*g || hi != lo+g {
				t.Fatalf("reach %d: product call %d covers [%d, %d)", reach, calls, lo, hi)
			}
			final := min(n, (hi+reach+g-1)/g*g) // reach, rounded up to granules
			for i, v := range x {
				want := 0.0
				if i < final {
					want = 1
				}
				if v != want {
					t.Fatalf("reach %d, rows [%d, %d): p[%d] = %g, want %g (final up to %d)", reach, lo, hi, i, v, want, final)
				}
			}
			clear(dst[lo:hi])
		}
		directionSweep(g, rows, reach, src, 0, p, ap, New(nblocks(n)), nil)
		if calls != n/g {
			t.Fatalf("reach %d: %d product calls, want %d", reach, calls, n/g)
		}
	}
}

// TestDirectionSweepLaps: the observer hears each part of each granule
// in the order it ran — the update of whatever the product needs, the
// product, its dots — and an update that had nothing left to do is not
// announced.
func TestDirectionSweepLaps(t *testing.T) {
	const n = 3*sweepBlocks*BlockLen + 5
	op := newBandOp(n, []int{-1, 0, 1}, 7, leafPlain)
	src, p, ap := New(n), New(n), New(n)
	Random(src, 1)
	Random(p, 2)
	var heard []SweepPart
	lap := func(part SweepPart) { heard = append(heard, part) }
	DirectionSweep(op.rows, op.reach(), src, 0.5, p, ap, New(nblocks(n)), lap)
	// Granule 0 needs p final one element into granule 1, so the update
	// runs two granules ahead at first, and has nothing to do for the last.
	want := []SweepPart{
		SweepUpdate, SweepProduct, SweepDots,
		SweepUpdate, SweepProduct, SweepDots,
		SweepUpdate, SweepProduct, SweepDots,
		SweepProduct, SweepDots,
	}
	if fmt.Sprint(heard) != fmt.Sprint(want) {
		t.Fatalf("laps %v, want %v", heard, want)
	}
	heard = heard[:0]
	DirectionSweep(op.rows, op.reach(), nil, 0, p, ap, New(nblocks(n)), lap)
	for _, part := range heard {
		if part == SweepUpdate {
			t.Fatalf("a sweep with nothing pending announced an update: %v", heard)
		}
	}
}

// TestDirectionSweepZeroAlloc: the sweep owns nothing; its slab is the
// caller's.
func TestDirectionSweepZeroAlloc(t *testing.T) {
	const n = 3 * sweepBlocks * BlockLen
	op := newBandOp(n, []int{-1, 0, 1}, 7, leafPlain)
	src, p, ap, part := New(n), New(n), New(n), New(nblocks(n))
	Random(src, 1)
	rows := RowKernel(op.rows)
	if a := testing.AllocsPerRun(10, func() {
		DirectionSweep(rows, 1, src, 0.5, p, ap, part, nil)
	}); a != 0 {
		t.Fatalf("DirectionSweep allocates %v per call", a)
	}
}

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

// carrying lifts a row kernel that completes no update into a
// SweepKernel: each call runs the update it owes through Carry, then its
// rows — what sparse.DIA's Go bodies do.
func carrying(rows RowKernel) SweepKernel {
	return func(lo, hi int, dst, x, src Vector, beta float64, lead int) {
		Carry(lo, hi, lead, src, beta, x)
		rows(lo, hi, dst, x)
	}
}

// directionSweep is the sweep at a granule of g elements over a row
// kernel that carries no update.
func directionSweep(g int, rows RowKernel, reach int, src Vector, beta float64, p, ap, part Vector, lap func(SweepPart)) float64 {
	return sweepGranules(g, carrying(rows), reach, src, beta, p, ap, part, lap)
}

// diaSweep is op as the sweep meets it through sparse.DIA: DIARows —
// the assembly row kernel, the update riding its wide trip, the
// diagonals marked in scalar broadcast — on each piece of a call over
// which no diagonal enters or leaves the matrix, and carrying(op.rows)
// where the portable bodies run.
func (op *bandOp) diaSweep(scalar uint64) SweepKernel {
	var slab []float64
	base := make([]int, len(op.offs))
	for d := range op.offs {
		base[d] = len(slab)
		slab = append(slab, op.vals[d]...)
	}
	return func(lo, hi int, dst, x, src Vector, beta float64, lead int) {
		for lo < hi {
			end := hi
			var offs, bases []int
			var mask uint64
			for d, k := range op.offs {
				switch {
				case lo+k < 0:
					end = min(end, -k) // enters there
				case lo+k < op.n:
					mask |= scalar >> d & 1 << len(offs)
					offs, bases = append(offs, k), append(bases, base[d])
					end = min(end, op.n-k) // leaves there
				}
			}
			if !DIARows(dst[lo:end], slab, bases, x, lo, offs, mask, src, beta, lead) {
				carrying(op.rows)(lo, end, dst, x, src, beta, lead)
			}
			lo = end
		}
	}
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

// checkCarriedSweep runs the sweep at a granule of g blocks over op as
// sparse.DIA's kernel meets it (diaSweep, the diagonals in scalar
// marked), from p0 with src pending (nil: nothing), p, src and ap fenced
// by sentinels, against the three whole-vector calls: p, src and the
// fences bit for bit, ap and (p, ap) too but for which NaN a sum of
// NaNs keeps, which the assembly and Go row bodies may pick differently.
func checkCarriedSweep(op *bandOp, g int, scalar uint64, reach int, src Vector, beta float64, p0 Vector) error {
	const guard = 5
	n := op.n
	wantP, wantAP := Clone(p0), New(n)
	if src != nil {
		Xpay(src, beta, wantP)
	}
	op.rows(0, n, wantAP, wantP)
	want := Dot(wantP, wantAP)

	fenced := func(v Vector) (buf, in Vector) {
		buf = New(n + 2*guard)
		Fill(buf, leafSentinel)
		copy(buf[guard:], v)
		return buf, buf[guard : guard+n : guard+n]
	}
	pBuf, p := fenced(p0)
	apBuf, ap := fenced(nil)
	Fill(ap, leafSentinel)
	var srcBuf, in Vector
	if src != nil {
		srcBuf, in = fenced(src)
	}
	got := sweepGranules(g*BlockLen, op.diaSweep(scalar), reach, in, beta, p, ap, New(nblocks(n)), nil)

	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if !same(got, want) {
		return fmt.Errorf("(p,ap): sweep %x (%g), whole-vector %x (%g)", math.Float64bits(got), got, math.Float64bits(want), want)
	}
	for i := range wantP {
		if math.Float64bits(p[i]) != math.Float64bits(wantP[i]) {
			return fmt.Errorf("p[%d]: sweep %x (%g), whole-vector %x (%g)", i, math.Float64bits(p[i]), p[i], math.Float64bits(wantP[i]), wantP[i])
		}
		if !same(ap[i], wantAP[i]) {
			return fmt.Errorf("ap[%d]: sweep %x (%g), whole-vector %x (%g)", i, math.Float64bits(ap[i]), ap[i], math.Float64bits(wantAP[i]), wantAP[i])
		}
	}
	if src != nil && !bitsEqual(in, src) {
		return fmt.Errorf("the sweep wrote its source")
	}
	for _, buf := range []Vector{pBuf, apBuf, srcBuf} {
		for i, v := range buf {
			if (i < guard || i >= guard+n) && math.Float64bits(v) != math.Float64bits(leafSentinel) {
				return fmt.Errorf("the sweep wrote %g %d elements outside an operand", v, min(guard-i, i-guard-n+1))
			}
		}
	}
	return nil
}

// constantDiagonals makes the diagonals of op that seed picks (bit 32+d)
// one value each, and returns them as scalar marks.
func constantDiagonals(op *bandOp, seed uint64) (scalar uint64) {
	for d := range op.offs {
		if seed>>(32+d)&1 != 0 {
			Fill(op.vals[d], op.vals[d][(d*7)%op.n])
			scalar |= 1 << d
		}
	}
	return scalar
}

// TestDirectionSweepCarried: the sweep over the assembly row kernel —
// the update a lead ahead inside its wide trip, the rest before the call
// — at lengths around a trip, a block and several, reaches from none
// through under a trip, not a trip's multiple, to everything, constant
// diagonals broadcast or not, and the leaf tests' three value mixes,
// leaves the bits of the three whole-vector calls.
func TestDirectionSweepCarried(t *testing.T) {
	for _, n := range []int{1, 31, 33, 1023, 4097, 20000} {
		for _, reach := range []int{0, 1, 31, 32, 33, 100, 4095, n, n + 5000} {
			for name, offs := range sweepOffsets(n, reach) {
				told := reach
				if name == "backward" {
					told = 0
				}
				for mode := 0; mode < leafModes; mode++ {
					seed := uint64(n)<<20 | uint64(reach)<<4 | uint64(mode) | uint64(n+reach)%7<<32
					op := newBandOp(n, offs, seed, mode)
					scalar := constantDiagonals(op, seed)
					beta := leafAlphas[(n+reach+mode)%len(leafAlphas)]
					p, src := New(n), New(n)
					fillLeafOperand(p, seed^0x2222, mode)
					fillLeafOperand(src, seed^0x1111, mode)
					for _, in := range []Vector{src, nil} {
						if err := checkCarriedSweep(op, 1+mode, scalar, told, in, beta, p); err != nil {
							t.Fatalf("n=%d reach=%d (%s %v) scalar=%b pending=%v mode=%d beta=%g: %v",
								n, told, name, offs, scalar, in != nil, mode, beta, err)
						}
					}
				}
			}
		}
	}
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

// FuzzDirectionSweep holds the same oracles to fuzzed lengths, offset
// sets, granules, updates and values: the sweep over a row kernel that
// carries no update, and over the assembly kernel with the diagonals
// seed makes constant marked (checkCarriedSweep), src random or nil.
// The seeds cover a reach of 0, under a trip, past a trip and not a
// multiple of it, and told at or past n.
func FuzzDirectionSweep(f *testing.F) {
	f.Add(uint16(1), int16(0), int16(0), int16(0), uint8(0), true, 0.5, uint64(1))
	f.Add(uint16(1025), int16(-1), int16(1), int16(33), uint8(1), true, -1.0, uint64(2))
	f.Add(uint16(4097), int16(-64), int16(64), int16(1024), uint8(2), false, 0.37, uint64(3))
	f.Add(uint16(20000), int16(-4096), int16(4095), int16(1), uint8(0), true, 1e-300, uint64(4))
	f.Add(uint16(9000), int16(-8999), int16(8999), int16(0), uint8(3), true, math.Inf(1), uint64(5))
	f.Add(uint16(3000), int16(-70), int16(0), int16(-3), uint8(0), true, 0.5, uint64(6|1<<32))
	f.Add(uint16(3000), int16(-5), int16(0), int16(5), uint8(1), true, -2.0, uint64(7|3<<32))
	f.Add(uint16(5000), int16(-100), int16(0), int16(100), uint8(2), true, 0.25, uint64(8|5<<32))
	f.Add(uint16(99), int16(-1), int16(0), int16(1), uint8(0), true, 0.75, uint64(1<<8|3000<<16|2<<32))
	f.Add(uint16(4096), int16(-4095), int16(1), int16(4095), uint8(1), false, 0.0, uint64(9|7<<32))
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
		scalar := constantDiagonals(op, seed)
		// The operator's own reach, and — every other seed — a looser one.
		reach := op.reach() + int(seed>>8%2)*int(seed>>16%5000)
		if err := checkDirectionSweep(op, g, reach, pending, beta, seed, mode); err != nil {
			t.Fatalf("n=%d offsets=%v reach=%d granule=%d pending=%v mode=%d beta=%g: %v", n, offs, reach, g, pending, mode, beta, err)
		}
		p, src := New(n), Vector(nil)
		fillLeafOperand(p, seed^0x2222, mode)
		if pending {
			src = New(n)
			fillLeafOperand(src, seed^0x1111, mode)
		}
		if err := checkCarriedSweep(op, g, scalar, reach, src, beta, p); err != nil {
			t.Fatalf("carried: n=%d offsets=%v scalar=%b reach=%d granule=%d pending=%v mode=%d beta=%g: %v", n, offs, scalar, reach, g, pending, mode, beta, err)
		}
	})
}

// TestDirectionSweepLags: the sweep applies the update to the first
// lead elements — reach rounded up to a wide trip of the row kernel, at
// most everything — and leaves every other element to the kernel, so
// each call for rows [lo, hi) is told that lead and finds p final on
// exactly p[:lo+lead]. Every bit test above would pass on a sweep that
// finished the update before it started the product, and that sweep
// crosses memory twice.
func TestDirectionSweepLags(t *testing.T) {
	const g, n = BlockLen, 16 * BlockLen
	for _, reach := range []int{0, 1, 31, 32, 33, g, g + 1, 3*g - 1, n - 1, n, n + 5} {
		wantLead := min(n, (reach+31)/32*32)
		src, p, ap := New(n), New(n), New(n)
		Fill(src, 1) // p = 1 + 0*p: an element is 1 once updated, 0 before
		var calls int
		rows := func(lo, hi int, dst, x, in Vector, beta float64, lead int) {
			calls++
			if lo != (calls-1)*g || hi != lo+g || lead != wantLead {
				t.Fatalf("reach %d: product call %d covers [%d, %d) a lead of %d ahead, want a lead of %d", reach, calls, lo, hi, lead, wantLead)
			}
			for i, v := range x {
				want := 0.0
				if i < lo+lead {
					want = 1
				}
				if v != want {
					t.Fatalf("reach %d, rows [%d, %d): p[%d] = %g, want %g (final up to %d)", reach, lo, hi, i, v, want, lo+lead)
				}
			}
			for i := lo + lead; i < min(n, hi+lead); i++ {
				x[i] = in[i] + beta*x[i]
			}
			clear(dst[lo:hi])
		}
		sweepGranules(g, rows, reach, src, 0, p, ap, New(nblocks(n)), nil)
		if calls != n/g {
			t.Fatalf("reach %d: %d product calls, want %d", reach, calls, n/g)
		}
	}
}

// TestDirectionSweepLaps: the observer hears each part in the order it
// ran — the update of the first lead elements, then each granule's
// product, which carries the rest of the update, and its dots — and an
// update with nothing to do, because nothing is pending or the lead is
// zero, is not announced.
func TestDirectionSweepLaps(t *testing.T) {
	const n = 3*sweepBlocks*BlockLen + 5
	op := newBandOp(n, []int{-1, 0, 1}, 7, leafPlain)
	src, p, ap := New(n), New(n), New(n)
	Random(src, 1)
	Random(p, 2)
	var heard []SweepPart
	lap := func(part SweepPart) { heard = append(heard, part) }
	DirectionSweep(carrying(op.rows), op.reach(), src, 0.5, p, ap, New(nblocks(n)), lap)
	want := []SweepPart{
		SweepUpdate,
		SweepProduct, SweepDots,
		SweepProduct, SweepDots,
		SweepProduct, SweepDots,
		SweepProduct, SweepDots,
	}
	if fmt.Sprint(heard) != fmt.Sprint(want) {
		t.Fatalf("laps %v, want %v", heard, want)
	}
	for _, c := range []struct {
		src   Vector
		reach int
	}{{nil, op.reach()}, {src, 0}} {
		heard = heard[:0]
		DirectionSweep(carrying(op.rows), c.reach, c.src, 0.5, p, ap, New(nblocks(n)), lap)
		if fmt.Sprint(heard) != fmt.Sprint(want[1:]) {
			t.Fatalf("pending %v, reach %d: laps %v, want %v", c.src != nil, c.reach, heard, want[1:])
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
	rows := carrying(op.rows)
	if a := testing.AllocsPerRun(10, func() {
		DirectionSweep(rows, 1, src, 0.5, p, ap, part, nil)
	}); a != 0 {
		t.Fatalf("DirectionSweep allocates %v per call", a)
	}
}

package vec

import (
	"fmt"
	"math"
	"testing"
)

// dotRef is Dot on the Go leaf whatever this process runs: the
// definition a batched inner product is held to.
func dotRef(x, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	part := make([]float64, nblocks(len(x)))
	for b0 := 0; b0 < len(x); b0 += BlockLen {
		b1 := min(len(x), b0+BlockLen)
		part[b0/BlockLen] = dotLeafGo(x[b0:b1], y[b0:b1])
	}
	return combineTree(part)
}

// batchLengths have every tail 0..3 on a short last block, on one block
// and on several, and every stretch boundary (dotsSub) a block has.
func batchLengths() []int {
	ns := []int{1, 2, 3, 4, 5, 6, 7}
	for _, base := range []int{dotsSub, 2 * dotsSub, BlockLen, BlockLen + dotsSub, 2 * BlockLen, 4 * BlockLen} {
		for d := -1; d <= 3; d++ {
			ns = append(ns, base+d)
		}
	}
	return ns
}

// family is nvec operands of length n; one in three shares its storage
// with an earlier one, so pairs repeat and alias as Gram pairs do.
func family(nvec, n int, seed uint64, mode int) []Vector {
	fam := make([]Vector, nvec)
	for i := range fam {
		if i > 0 && (seed+uint64(i))%3 == 0 {
			fam[i] = fam[(seed>>3)%uint64(i)]
			continue
		}
		fam[i] = New(n)
		fillLeafOperand(fam[i], seed+uint64(i)*0x9e37, mode)
	}
	return fam
}

// checkDots holds Dots, serial and on every pool, to Dot and to the Go
// definition, pair by pair.
func checkDots(xs, ys []Vector, pools []*Pool) error {
	m := len(xs)
	n := 0
	if m > 0 {
		n = len(xs[0])
	}
	out, part := make([]float64, m), make([]float64, m*nblocks(n))
	Fill(out, leafSentinel)
	Dots(out, xs, ys, part)
	for i := range out {
		if want := dotRef(xs[i], ys[i]); !sameFloat(out[i], want) || !sameFloat(out[i], Dot(xs[i], ys[i])) {
			return fmt.Errorf("pair %d of %d, n=%d: Dots %x, Go definition %x, Dot %x", i, m, n,
				math.Float64bits(out[i]), math.Float64bits(want), math.Float64bits(Dot(xs[i], ys[i])))
		}
	}
	got := make([]float64, m)
	for _, p := range pools {
		Fill(got, leafSentinel)
		p.Dots(got, xs, ys, part)
		for i := range got {
			if !sameFloat(got[i], out[i]) {
				return fmt.Errorf("pair %d of %d, n=%d, %d workers: pooled %x, serial %x", i, m, n, p.Workers(),
					math.Float64bits(got[i]), math.Float64bits(out[i]))
			}
		}
	}
	return nil
}

// gramLists are the pair lists the schedules hand Dots: (R,R), (R,P),
// (P,P) to a top index each, index s split as (s/2, s-s/2) with the left
// factor capped at its family's last member.
func gramLists(R, P []Vector, tops [3]int) (xs, ys []Vector) {
	for f, fam := range [3][2][]Vector{{R, R}, {R, P}, {P, P}} {
		for s := 0; s <= tops[f]; s++ {
			a := min(s/2, len(fam[0])-1)
			xs, ys = append(xs, fam[0][a]), append(ys, fam[1][s-a])
		}
	}
	return xs, ys
}

func testPools(t testing.TB) []*Pool {
	var pools []*Pool
	for _, w := range []int{2, 3, 4} {
		p := NewPoolMinChunk(w, 1)
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

// TestDotsBitwise: every sum of a batch is Dot's, bit for bit — m pairs
// for m = 1..40 over a family with repeated and aliased members, every
// tail and stretch boundary, every value mix; the pair lists of parcg's
// anchor (k = 1..3), sstep's block (s = 1..5) and vrcg's window with its
// tops (k = 0..4); serial and pooled. Without -race Dots runs the
// assembly body and Dot the assembly leaf; with it both run the Go
// bodies; dotRef is the Go leaf either way.
func TestDotsBitwise(t *testing.T) {
	pools := testPools(t)
	for m := 1; m <= 40; m++ {
		for ni, n := range batchLengths() {
			if m > 9 && ni%4 != m%4 { // every length with every m mod 4, not with every m
				continue
			}
			mode := (m + ni) % leafModes
			fam := family(3+m%7, n, uint64(m)<<8|uint64(ni), mode)
			xs, ys := make([]Vector, m), make([]Vector, m)
			for i := range xs {
				xs[i], ys[i] = fam[(i/2)%len(fam)], fam[(i-i/2)%len(fam)]
			}
			if err := checkDots(xs, ys, pools); err != nil {
				t.Fatalf("m=%d mode=%d: %v", m, mode, err)
			}
		}
	}
	for _, n := range []int{777, 4 * BlockLen, 4*BlockLen + 3} {
		for k := 1; k <= 3; k++ { // parcg: R[0..2k], P[0..2k+1], 4k+1 of each
			fam := family(4*k+3, n, uint64(k), leafPlain)
			xs, ys := gramLists(fam[:2*k+1], fam[2*k+1:], [3]int{4 * k, 4 * k, 4 * k})
			if err := checkDots(xs, ys, pools); err != nil {
				t.Fatalf("parcg k=%d: %v", k, err)
			}
		}
		for s := 1; s <= 5; s++ { // sstep: rPow[0..s], pPow[0..s+1]
			fam := family(2*s+3, n, uint64(s)+16, leafPlain)
			xs, ys := gramLists(fam[:s+1], fam[s+1:], [3]int{2 * s, 2*s + 1, 2*s + 2})
			if err := checkDots(xs, ys, pools); err != nil {
				t.Fatalf("sstep s=%d: %v", s, err)
			}
		}
		for k := 0; k <= 4; k++ { // vrcg: R[0..k], P[0..k+1], then the tops again
			fam := family(2*k+3, n, uint64(k)+32, leafPlain)
			R, P := fam[:k+1], fam[k+1:]
			xs, ys := gramLists(R, P, [3]int{2 * k, 2*k + 1, 2*k + 2})
			xs, ys = append(xs, R[k], P[k], P[k+1]), append(ys, P[k+1], P[k+1], P[k+1])
			if err := checkDots(xs, ys, pools); err != nil {
				t.Fatalf("vrcg k=%d: %v", k, err)
			}
			if err := checkDots(xs[6*k+6:], ys[6*k+6:], pools); err != nil {
				t.Fatalf("vrcg tops k=%d: %v", k, err)
			}
		}
	}
}

// FuzzDotsLeaf holds the same oracle to fuzzed (pairs, length, seed)
// triples, the pairing drawn from the seed.
func FuzzDotsLeaf(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint64(1))
	f.Add(uint8(3), uint16(1027), uint64(2))
	f.Add(uint8(27), uint16(4096), uint64(3))
	f.Add(uint8(33), uint16(259), uint64(4))
	f.Fuzz(func(t *testing.T, pairs uint8, n uint16, seed uint64) {
		m, ln := int(pairs)%70+1, int(n)%5000+1
		fam := family(2+int(seed%9), ln, seed, int(seed%leafModes))
		xs, ys := make([]Vector, m), make([]Vector, m)
		s := seed
		for i := range xs {
			r := splitmix64(&s)
			xs[i], ys[i] = fam[r%uint64(len(fam))], fam[(r>>32)%uint64(len(fam))]
		}
		if err := checkDots(xs, ys, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// combineCoefs are the coefficients the table test draws from: both
// zeros (skipped), the non-finite ones (never skipped), and ordinary
// ones.
var combineCoefs = []float64{0.37, -1.25, 0, math.Copysign(0, -1), 1, -1, 1e-300, 3e200,
	math.Inf(1), math.Inf(-1), math.NaN(), 0.5, -0.125, 7}

// Where the destination of a checkCombineCase lies.
const (
	combineApart  = iota // its own vector
	combineOnInit        // dst is init
	combineOnTerm        // dst is xs[terms/2]
	combineAliases
)

// checkCombineCase runs Combine, serial (the body this process runs) and on
// every pool, and combineGo, against Copy or Zero followed by one axpyGo
// per term, on operands with sentinels either side of the destination.
func checkCombineCase(terms, n int, withInit bool, alias int, coef []float64, seed uint64, mode int, pools []*Pool) error {
	xs := make([]Vector, terms)
	for j := range xs {
		xs[j] = New(n)
		fillLeafOperand(xs[j], seed+uint64(j)*0x9e37, mode)
	}
	var init Vector
	if withInit {
		init = New(n)
		fillLeafOperand(init, seed^0x5555, mode)
	}
	want := New(n)
	if init != nil {
		copy(want, init)
	}
	for j, x := range xs {
		if coef[j] != 0 {
			axpyGo(coef[j], x, want)
		}
	}
	run := func(name string, f func(dst, init Vector, xs []Vector)) error {
		buf := make([]float64, leafGuard+n+leafGuard)
		Fill(buf, leafSentinel)
		dst := buf[leafGuard : leafGuard+n : leafGuard+n]
		in, ops := init, append([]Vector(nil), xs...)
		switch {
		case alias == combineOnInit && init != nil:
			copy(dst, init)
			in = dst
		case alias == combineOnTerm && terms > 0:
			copy(dst, xs[terms/2])
			ops[terms/2] = dst
		}
		f(dst, in, ops)
		for i, v := range buf {
			if i < leafGuard || i >= leafGuard+n {
				if math.Float64bits(v) != math.Float64bits(leafSentinel) {
					return fmt.Errorf("%s: sentinel at %d overwritten", name, i-leafGuard)
				}
			} else if !sameFloat(v, want[i-leafGuard]) {
				return fmt.Errorf("%s: element %d: %x (%g), Axpy by Axpy %x (%g)", name, i-leafGuard,
					math.Float64bits(v), v, math.Float64bits(want[i-leafGuard]), want[i-leafGuard])
			}
		}
		return nil
	}
	if err := run("Combine", func(dst, init Vector, xs []Vector) { Combine(dst, init, coef, xs) }); err != nil {
		return err
	}
	if err := run("combineGo", func(dst, init Vector, xs []Vector) { combineGo(dst, init, coef, xs, 0, n) }); err != nil {
		return err
	}
	for _, p := range pools {
		name := fmt.Sprintf("pooled Combine, %d workers", p.Workers())
		if err := run(name, func(dst, init Vector, xs []Vector) { p.Combine(dst, init, coef, xs) }); err != nil {
			return err
		}
	}
	return nil
}

// TestCombineBitwise: 0..12 terms, every trip width and tail, from +0,
// from an init apart and from dst itself, into one of its own terms,
// coefficients and operands with zeros of both signs, ±Inf and NaN:
// Combine is Axpy after Axpy, bit for bit, serial and pooled, on either
// body.
func TestCombineBitwise(t *testing.T) {
	pools := testPools(t)
	lengths := append(leafLengths(), 4*BlockLen, 4*BlockLen+1, 8*BlockLen+37)
	for terms := 0; terms <= 12; terms++ {
		for ni, n := range lengths {
			for alias := 0; alias < combineAliases; alias++ {
				withInit := (terms+ni+alias)%2 == 0 || alias == combineOnInit
				mode := (terms + ni) % leafModes
				coef := make([]float64, terms)
				for j := range coef {
					coef[j] = combineCoefs[(terms*7+ni*3+j*5+alias)%len(combineCoefs)]
				}
				ps := pools
				if n < 1000 && ni%8 != 0 {
					ps = nil // short vectors mostly run serial on a pool too
				}
				seed := uint64(terms)<<20 | uint64(ni)<<8 | uint64(alias)
				if err := checkCombineCase(terms, n, withInit, alias, coef, seed, mode, ps); err != nil {
					t.Fatalf("terms=%d n=%d init=%v alias=%d mode=%d coef=%v: %v", terms, n, withInit, alias, mode, coef, err)
				}
			}
		}
	}
}

// FuzzCombineLeaf holds the same oracle to fuzzed shapes, the first two
// coefficients fuzzed and the rest drawn from the seed.
func FuzzCombineLeaf(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), 0.0, 1.0, uint64(1))
	f.Add(uint8(9), uint16(4096), uint8(1), 0.5, math.Inf(1), uint64(2))
	f.Add(uint8(3), uint16(35), uint8(2), math.NaN(), math.Copysign(0, -1), uint64(3))
	f.Add(uint8(12), uint16(1029), uint8(5), -1e-300, 2.5, uint64(4))
	f.Fuzz(func(t *testing.T, terms uint8, n uint16, shape uint8, c0, c1 float64, seed uint64) {
		nt, ln := int(terms)%13, int(n)%9000
		coef := make([]float64, nt)
		s := seed
		for j := range coef {
			coef[j] = combineCoefs[splitmix64(&s)%uint64(len(combineCoefs))]
		}
		if nt > 0 {
			coef[0] = c0
		}
		if nt > 1 {
			coef[nt-1] = c1
		}
		alias, withInit := int(shape)%combineAliases, shape&4 != 0
		if err := checkCombineCase(nt, ln, withInit || alias == combineOnInit, alias, coef, seed, int(seed%leafModes), nil); err != nil {
			t.Fatalf("terms=%d n=%d alias=%d coef=%v: %v", nt, ln, alias, coef, err)
		}
	})
}

// TestBatchLeavesZeroAlloc: a batch of inner products and a combination
// allocate nothing, serial or dispatched.
func TestBatchLeavesZeroAlloc(t *testing.T) {
	const n = 1 << 15
	fam := family(10, n, 1, leafPlain)
	xs, ys := gramLists(fam[:5], fam[5:], [3]int{8, 8, 8})
	out, part := make([]float64, len(xs)), make([]float64, len(xs)*nblocks(n))
	coef := []float64{1e-9, -1e-9, 0, 1e-9}
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.Dots(out, xs, ys, part) // warm: workers + batch slab
	for name, f := range map[string]func(){
		"Dots":           func() { Dots(out, xs, ys, part) },
		"pooled Dots":    func() { p.Dots(out, xs, ys, part) },
		"Combine":        func() { Combine(fam[9], fam[9], coef, fam[:4]) },
		"pooled Combine": func() { p.Combine(fam[9], nil, coef, fam[:4]) },
	} {
		if avg := testing.AllocsPerRun(50, f); avg != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, avg)
		}
	}
}

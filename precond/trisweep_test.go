package precond

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// ic0RowOrder is IC0.Apply as it was before the level schedule: rows in
// index order, the forward solve gathering along L's rows, the backward
// one scattering down them in reverse.
func ic0RowOrder(l vec.TriRows, d []float64, dst, r vec.Vector) {
	n := len(d)
	y := vec.New(n)
	for i := 0; i < n; i++ {
		s := r[i]
		for p := l.Ptr[i]; p < l.Ptr[i+1]; p++ {
			s -= l.Vals[p] * y[l.Idx[p]]
		}
		y[i] = s / d[i]
	}
	copy(dst, y)
	for i := n - 1; i >= 0; i-- {
		dst[i] /= d[i]
		xi := dst[i]
		for p := l.Ptr[i]; p < l.Ptr[i+1]; p++ {
			dst[l.Idx[p]] -= l.Vals[p] * xi
		}
	}
}

// ssorRowOrder is SSOR.Apply as it was: both solves through ScanRow over
// whole rows of a, in index order.
func ssorRowOrder(a *sparse.CSR, w float64, dst, r vec.Vector) {
	n := a.Dim()
	diag, y := vec.New(n), vec.New(n)
	a.Diag(diag)
	scale := (2 - w) / w
	for i := 0; i < n; i++ {
		s := r[i]
		a.ScanRow(i, func(j int, v float64) {
			if j < i {
				s -= v * y[j]
			}
		})
		y[i] = s * w / diag[i]
	}
	for i := 0; i < n; i++ {
		y[i] *= scale * diag[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		a.ScanRow(i, func(j int, v float64) {
			if j > i {
				s -= v * dst[j]
			}
		})
		dst[i] = s * w / diag[i]
	}
}

// randomSPD is a seeded symmetric M-matrix of order n: row i couples to
// between 0 and maxWidth earlier rows with negative weights, and the
// diagonal strictly dominates, so IC(0) exists. Rows of every width from
// 0 up occur, isolated rows among them.
func randomSPD(n, maxWidth int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n)
	sum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := rng.Intn(maxWidth + 1); k > 0 && i > 0; k-- {
			j, v := rng.Intn(i), -(0.1 + rng.Float64())
			coo.AddSym(i, j, v)
			sum[i] -= v
			sum[j] -= v
		}
	}
	for i, s := range sum {
		coo.Add(i, i, s+0.5+rng.Float64())
	}
	return coo.ToCSR()
}

type triOperator struct {
	name string
	a    *sparse.CSR
}

func triSweepOperators(t testing.TB) []triOperator {
	p2 := sparse.Poisson2D(13)
	rcm, err := sparse.PermuteSymmetric(p2, sparse.RCMOrder(p2))
	if err != nil {
		t.Fatal(err)
	}
	vc, err := sparse.VarCoeffPoisson2D(15, func(x, y float64) float64 {
		if x > 0.5 != (y > 0.5) {
			return 1e3
		}
		return 1 + x
	})
	if err != nil {
		t.Fatal(err)
	}
	// Forty rows that each read row 0 and nothing else: one level of
	// width-1 rows going forward, one row of width 40 going backward.
	arrow := sparse.NewCOO(41)
	arrow.Add(0, 0, 50)
	for i := 1; i <= 40; i++ {
		arrow.Add(i, i, 2+float64(i)/7)
		arrow.AddSym(i, 0, -1/float64(i))
	}
	return []triOperator{
		{"arrow-41", arrow.ToCSR()},
		{"poisson1d-100", sparse.Poisson1D(100)},
		{"poisson2d-17", sparse.Poisson2D(17)},
		{"poisson2d-64", sparse.Poisson2D(64)},
		{"poisson3d-12", sparse.Poisson3D(12)},
		{"poisson2d-13-rcm", rcm},
		{"varcoeff-15", vc},
		{"random-width-0-8", randomSPD(300, 8, 7)},
	}
}

// triSweepRHS are right-hand sides that tell two orders of subtraction
// apart and exercise what padding or a reordered sum would break: plain
// random, then the same with -0, a NaN and ±Inf planted.
func triSweepRHS(n int, seed uint64) []vec.Vector {
	plain := vec.New(n)
	vec.Random(plain, seed)
	zeros := vec.Clone(plain)
	for i := 0; i < n; i += 3 {
		zeros[i] = math.Copysign(0, -1)
	}
	allNegZero := vec.New(n)
	vec.Fill(allNegZero, math.Copysign(0, -1))
	nan := vec.Clone(zeros)
	nan[n/2] = math.NaN()
	inf := vec.Clone(zeros)
	inf[n/3], inf[2*n/3] = math.Inf(1), math.Inf(-1)
	return []vec.Vector{plain, zeros, allNegZero, nan, inf}
}

// sameBits is the oracle's equality: the same bits, or both NaN (which
// NaN comes out of two depends on operand order, which no body defines).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func firstDifference(want, got vec.Vector) error {
	for i := range want {
		if !sameBits(want[i], got[i]) {
			return fmt.Errorf("element %d: row order %x (%g), sweep %x (%g)", i,
				math.Float64bits(want[i]), want[i], math.Float64bits(got[i]), got[i])
		}
	}
	return nil
}

// checkTriSweepParity holds IC0.Apply and SSOR.Apply on a to the
// row-order loops, bit for bit, on every right-hand side.
func checkTriSweepParity(a *sparse.CSR, ws []float64, rhs []vec.Vector) error {
	n := a.Dim()
	want, got := vec.New(n), vec.New(n)
	l, d, err := ic0Factor(a)
	if err != nil {
		return err
	}
	ic, err := NewIC0(a)
	if err != nil {
		return err
	}
	for k, r := range rhs {
		ic0RowOrder(l, d, want, r)
		ic.Apply(got, r)
		if err := firstDifference(want, got); err != nil {
			return fmt.Errorf("ic0 rhs %d: %w", k, err)
		}
	}
	for _, w := range ws {
		ss, err := NewSSOR(a, w)
		if err != nil {
			return err
		}
		for k, r := range rhs {
			ssorRowOrder(a, w, want, r)
			ss.Apply(got, r)
			if err := firstDifference(want, got); err != nil {
				return fmt.Errorf("ssor w=%g rhs %d: %w", w, k, err)
			}
		}
	}
	return nil
}

// TestTriSweepBitwise: the level-scheduled sweeps return the bits of the
// row-order loops they replaced. Run with and without -race, it covers
// the Go bodies and the assembly body.
func TestTriSweepBitwise(t *testing.T) {
	for _, op := range triSweepOperators(t) {
		if err := checkTriSweepParity(op.a, []float64{1, 1.5, 0.3}, triSweepRHS(op.a.Dim(), 11)); err != nil {
			t.Errorf("%s: %v", op.name, err)
		}
	}
}

// TestTriSweepRunsEveryBody: the operators above reach the width-0
// body, each fixed-width body and the generic one, in runs long enough
// for the assembly and in runs of one row.
func TestTriSweepRunsEveryBody(t *testing.T) {
	widths, longest := map[int]bool{}, map[int]int{}
	for _, op := range triSweepOperators(t) {
		l, _, err := ic0Factor(op.a)
		if err != nil {
			t.Fatal(err)
		}
		order, levels := schedule(l, transposed(l))
		for lv := 0; lv+1 < len(levels); lv++ {
			run := 0
			for q := levels[lv]; q < levels[lv+1]; q++ {
				w := len(l.Row(int(order[q])))
				if q > levels[lv] && w != len(l.Row(int(order[q-1]))) {
					run = 0
				}
				run++
				widths[w] = true
				longest[w] = max(longest[w], run)
			}
		}
	}
	for w := 0; w <= 8; w++ {
		if !widths[w] {
			t.Errorf("no row of width %d", w)
		}
	}
	for w := 0; w <= 3; w++ {
		if longest[w] < 9 {
			t.Errorf("width %d: longest run is %d rows, want at least two registers and a tail", w, longest[w])
		}
	}
}

// TestScheduleLevels: the levels partition the rows, and every row a row
// reads lies in a strictly earlier level going forward, a strictly later
// one going backward.
func TestScheduleLevels(t *testing.T) {
	ops := triSweepOperators(t)
	// An unsymmetric pattern: row 0 reads row 3 going backward, and
	// nothing reads row 0 going forward.
	coo := sparse.NewCOO(4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, 4)
	}
	coo.Add(0, 3, -1)
	coo.Add(2, 1, -1)
	ops = append(ops, triOperator{"unsymmetric", coo.ToCSR()})
	for _, op := range ops {
		lower, _, _ := triangle(op.a, false)
		upper, _, _ := triangle(op.a, true)
		for _, up := range []vec.TriRows{upper, transposed(lower)} {
			order, levels := schedule(lower, up)
			n := op.a.Dim()
			if levels[0] != 0 || int(levels[len(levels)-1]) != n {
				t.Fatalf("%s: levels %v do not span %d rows", op.name, levels, n)
			}
			level := make([]int, n)
			seen := make([]bool, n)
			for lv := 0; lv+1 < len(levels); lv++ {
				if levels[lv] >= levels[lv+1] {
					t.Fatalf("%s: level %d is empty", op.name, lv)
				}
				for _, i := range order[levels[lv]:levels[lv+1]] {
					if seen[i] {
						t.Fatalf("%s: row %d scheduled twice", op.name, i)
					}
					seen[i], level[i] = true, lv
				}
			}
			for i := 0; i < n; i++ {
				for _, j := range lower.Row(i) {
					if level[j] >= level[i] {
						t.Fatalf("%s: row %d (level %d) reads row %d (level %d) going forward", op.name, i, level[i], j, level[j])
					}
				}
				for _, j := range up.Row(i) {
					if level[j] <= level[i] {
						t.Fatalf("%s: row %d (level %d) reads row %d (level %d) going backward", op.name, i, level[i], j, level[j])
					}
				}
			}
		}
	}
	// What the schedule finds on the pinned shapes: a chain has a level
	// per row, the m×m grid 2m-1, the m³ grid 3m-2.
	for _, c := range []struct {
		a    *sparse.CSR
		want int
	}{{sparse.Poisson1D(100), 100}, {sparse.Poisson2D(64), 127}, {sparse.Poisson3D(12), 34}} {
		lower, _, _ := triangle(c.a, false)
		if _, levels := schedule(lower, transposed(lower)); len(levels)-1 != c.want {
			t.Errorf("order %d: %d levels, want %d", c.a.Dim(), len(levels)-1, c.want)
		}
	}
}

// TestSSORUnsymmetricPattern: SSOR reads whatever rows it is given; a
// pattern that is not symmetric still gets the row-order answer.
func TestSSORUnsymmetricPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 60
	coo := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 8+rng.Float64())
		for k := 0; k < 3; k++ {
			if j := rng.Intn(n); j != i {
				coo.Add(i, j, -rng.Float64())
			}
		}
	}
	a := coo.ToCSR()
	ss, err := NewSSOR(a, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	want, got := vec.New(n), vec.New(n)
	for k, r := range triSweepRHS(n, 5) {
		ssorRowOrder(a, 1.2, want, r)
		ss.Apply(got, r)
		if err := firstDifference(want, got); err != nil {
			t.Fatalf("rhs %d: %v", k, err)
		}
	}
}

// FuzzTriSweepParity: any pattern, values and right-hand side the
// generator can reach give the row-order loops' bits.
func FuzzTriSweepParity(f *testing.F) {
	f.Add(uint16(1), uint8(0), int64(1), uint64(1), 1.5)
	f.Add(uint16(40), uint8(2), int64(2), uint64(2), 1.0)
	f.Add(uint16(300), uint8(8), int64(3), uint64(3), 0.5)
	f.Add(uint16(700), uint8(40), int64(4), uint64(4), 1.9)
	f.Fuzz(func(t *testing.T, n uint16, maxWidth uint8, pattern int64, rhs uint64, w float64) {
		if !(w > 0 && w < 2) {
			w = 1.5
		}
		a := randomSPD(1+int(n)%1000, int(maxWidth)%48, pattern)
		if err := checkTriSweepParity(a, []float64{w}, triSweepRHS(a.Dim(), rhs)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNonFiniteDiagonalRejected: a NaN or an infinite diagonal entry is
// not a positive one, whatever a comparison with zero says.
func TestNonFiniteDiagonalRejected(t *testing.T) {
	build := map[string]func(a *sparse.CSR) error{
		"jacobi": func(a *sparse.CSR) error { _, err := NewJacobi(a); return err },
		"ssor":   func(a *sparse.CSR) error { _, err := NewSSOR(a, 1.5); return err },
		"ic0":    func(a *sparse.CSR) error { _, err := NewIC0(a); return err },
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for row := 0; row < 3; row++ {
			coo := sparse.NewCOO(3)
			for i := 0; i < 3; i++ {
				coo.Add(i, i, 2)
			}
			coo.Add(row, row, bad) // 2 + bad is bad
			coo.AddSym(0, 1, -1)
			coo.AddSym(1, 2, -1)
			a := coo.ToCSR()
			for name, f := range build {
				err := f(a)
				if err == nil {
					t.Errorf("%s accepted a diagonal of %g at row %d", name, bad, row)
				} else if name == "ic0" && !errors.Is(err, ErrNotFactorizable) {
					t.Errorf("ic0 on a diagonal of %g at row %d: %v, want ErrNotFactorizable", bad, row, err)
				}
			}
		}
	}
}

package sparse

import (
	"math"
	"runtime"
	"testing"

	"vrcg/internal/vec"
)

// skewedCSR builds the pathological row-length distribution for SELL:
// mostly short rows with a heavy row every stride rows, so naive
// ELLPACK-style padding would be enormous and the σ-window sort has
// real work to do.
func skewedCSR(n, stride, heavy int) *CSR {
	coo := NewCOO(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1)
		}
		if i%stride == 0 {
			for k := 1; k <= heavy; k++ {
				coo.Add(i, (i+k*7)%n, 1/float64(k+1))
			}
		}
	}
	return coo.ToCSR()
}

func sellParityMatrices() map[string]*CSR {
	return map[string]*CSR{
		"random":    RandomSPD(701, 6, 42),
		"banded":    Poisson2D(33), // n=1089, regular 5-point rows
		"skewed":    skewedCSR(1500, 97, 60),
		"arrow":     irregularCSR(513),
		"tiny":      TridiagToeplitz(5, 4, -1),
		"tridiag1d": Poisson1D(2049),
	}
}

// TestSELLParityCSR is the conversion-correctness satellite: for
// random, banded, and pathological skewed-row-length matrices, at
// several sorting windows, SELL.MulVec must equal CSR.MulVec bitwise
// (each row keeps its CSR accumulation order and padding adds exact
// +0.0 terms).
func TestSELLParityCSR(t *testing.T) {
	for name, a := range sellParityMatrices() {
		n := a.Dim()
		x := vec.New(n)
		vec.Random(x, uint64(7*n+1))
		want := vec.New(n)
		a.MulVec(want, x)
		for _, sigma := range []int{0, SellC, 32, 1 << 20} {
			s := NewSELL(a, sigma)
			got := vec.New(n)
			vec.Fill(got, math.NaN())
			s.MulVec(got, x)
			if !vec.Equal(want, got) {
				t.Fatalf("%s n=%d sigma=%d: SELL.MulVec differs from CSR bitwise", name, n, sigma)
			}
			if s.NNZ() != a.NNZ() {
				t.Fatalf("%s sigma=%d: NNZ = %d, CSR %d", name, sigma, s.NNZ(), a.NNZ())
			}
			if s.MaxRowNonzeros() != a.MaxRowNonzeros() {
				t.Fatalf("%s sigma=%d: MaxRowNonzeros = %d, CSR %d",
					name, sigma, s.MaxRowNonzeros(), a.MaxRowNonzeros())
			}
			if pr := s.PaddingRatio(); pr < 0 || pr >= 1 {
				t.Fatalf("%s sigma=%d: PaddingRatio = %v out of [0,1)", name, sigma, pr)
			}
		}
	}
}

// TestSELLSortBoundsPadding: on the skewed matrix a real sorting window
// must shrink padding dramatically versus no sorting (σ = C leaves
// every heavy row grouped with its short neighbors).
func TestSELLSortBoundsPadding(t *testing.T) {
	a := skewedCSR(1500, 97, 60)
	unsorted := NewSELL(a, SellC)
	sorted := NewSELL(a, 512)
	if sorted.PaddingRatio() >= unsorted.PaddingRatio() {
		t.Fatalf("σ-sorting did not reduce padding: σ=512 ratio %v, σ=C ratio %v",
			sorted.PaddingRatio(), unsorted.PaddingRatio())
	}
	if sorted.PaddingRatio() > 0.25 {
		t.Fatalf("sorted padding ratio %v, want ≤ 0.25 on this distribution", sorted.PaddingRatio())
	}
}

// TestSELLAt spot-checks At against CSR.At, including stored zeros'
// positions and padding slots.
func TestSELLAt(t *testing.T) {
	a := skewedCSR(300, 41, 20)
	s := a.ToSELL()
	for i := 0; i < a.Dim(); i += 7 {
		for j := 0; j < a.Dim(); j += 11 {
			if got, want := s.At(i, j), a.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %v, CSR %v", i, j, got, want)
			}
		}
	}
}

// TestSELLMulVecPoolBitwise: the pooled SELL product equals the serial
// one bitwise across worker counts — chunk ranges write disjoint rows
// through the permutation, and per-row accumulation order is fixed.
func TestSELLMulVecPoolBitwise(t *testing.T) {
	for name, a := range sellParityMatrices() {
		n := a.Dim()
		s := a.ToSELL()
		x := vec.New(n)
		vec.Random(x, uint64(11*n+5))
		want := vec.New(n)
		s.MulVec(want, x)
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), n + 5} {
			pool := vec.NewPoolMinChunk(w, 1)
			got := vec.New(n)
			vec.Fill(got, -123)
			s.MulVecPool(pool, got, x)
			if !vec.Equal(want, got) {
				t.Fatalf("%s n=%d workers=%d: SELL.MulVecPool differs from MulVec", name, n, w)
			}
			pool.Close()
		}
	}
}

// TestSELLMulVecPoolZeroAlloc: a warm pooled SELL product allocates
// nothing (run under -race in CI).
func TestSELLMulVecPoolZeroAlloc(t *testing.T) {
	s := Poisson2D(64).ToSELL() // n=4096
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()
	x := vec.New(s.Dim())
	vec.Random(x, 23)
	dst := vec.New(s.Dim())
	s.MulVecPool(pool, dst, x) // warm partition cache + workers
	if avg := testing.AllocsPerRun(100, func() { s.MulVecPool(pool, dst, x) }); avg != 0 {
		t.Errorf("warm SELL.MulVecPool allocates %v per call, want 0", avg)
	}
}

// TestSELLChunkPartition: boundaries cover all chunks, strictly
// increase, and cache per part count.
func TestSELLChunkPartition(t *testing.T) {
	s := skewedCSR(2000, 53, 40).ToSELL()
	nchunks := (s.Dim() + SellC - 1) / SellC
	for _, parts := range []int{1, 2, 3, 8, 64} {
		b := s.ChunkPartition(parts)
		if b[0] != 0 || b[len(b)-1] != nchunks {
			t.Fatalf("parts=%d: bounds %v do not cover [0,%d]", parts, b, nchunks)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("parts=%d: bounds %v not strictly increasing", parts, b)
			}
		}
		if len(b)-1 > parts {
			t.Fatalf("parts=%d: %d chunks produced", parts, len(b)-1)
		}
	}
}

// shuffledGridLaplacian is Poisson2D(m) with its unknowns renumbered by
// a fixed pseudo-random permutation: the same row lengths, so SELL pads
// almost nothing, but the entries land on thousands of diagonals.
func shuffledGridLaplacian(m int) *CSR {
	n := m * m
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		rng = rng*6364136223846793005 + 1442695040888963407
		j := int((rng >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var edges []Edge
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			if c+1 < m {
				edges = append(edges, Edge{U: perm[r*m+c], V: perm[r*m+c+1], W: 1})
			}
			if r+1 < m {
				edges = append(edges, Edge{U: perm[r*m+c], V: perm[(r+1)*m+c], W: 1})
			}
		}
	}
	return GraphLaplacian(n, edges, 0.5)
}

// TestTuneMulVec pins the auto-selection policy: banded → DIA at every
// size, built once and cached; else large and paddable → SELL; else
// the CSR itself; non-CSR operators pass through.
func TestTuneMulVec(t *testing.T) {
	for _, a := range []*CSR{Poisson2D(20), Poisson2D(32), Poisson2D(64), Poisson3D(16)} {
		// The references come from the arrays, before tuning releases them.
		nnz, maxRow := a.NNZ(), a.MaxRowNonzeros()
		x := vec.New(a.Dim())
		vec.Random(x, 31)
		want, got := vec.New(a.Dim()), vec.New(a.Dim())
		rowLoop(a, want, x)
		t1 := TuneMulVec(a)
		d, ok := t1.(*DIA)
		if !ok {
			t.Fatalf("TuneMulVec(grid stencil, n=%d) = %T, want *DIA", a.Dim(), t1)
		}
		if t2 := TuneMulVec(a); t2 != Matrix(d) {
			t.Fatalf("n=%d: TuneMulVec rebuilt the DIA instead of returning the cached one", a.Dim())
		}
		if d.NNZ() != nnz || d.MaxRowNonzeros() != maxRow {
			t.Fatalf("n=%d: tuned counts %d/%d, CSR %d/%d",
				a.Dim(), d.NNZ(), d.MaxRowNonzeros(), nnz, maxRow)
		}
		d.MulVec(got, x)
		if !bitsEqual(want, got) {
			t.Fatalf("n=%d: tuned operator differs from CSR bitwise", a.Dim())
		}
	}

	dense := NewDense(3)
	if got := TuneMulVec(dense); got != Matrix(dense) {
		t.Fatalf("TuneMulVec changed a non-CSR operator: %T", got)
	}
	hand := NewDIA(2, map[int][]float64{0: {1, 1}})
	if got := TuneMulVec(hand); got != Matrix(hand) {
		t.Fatalf("TuneMulVec changed a hand-built DIA: %T", got)
	}

	// Not banded, large, regular rows: SELL, once.
	big := shuffledGridLaplacian(64)
	t1 := TuneMulVec(big)
	s, ok := t1.(*SELL)
	if !ok {
		t.Fatalf("TuneMulVec(non-banded n=%d) = %T, want *SELL", big.Dim(), t1)
	}
	if t2 := TuneMulVec(big); t2 != Matrix(s) {
		t.Fatal("TuneMulVec rebuilt the SELL instead of returning the cached one")
	}
	// Not banded and below the SELL floor: stays CSR.
	small := shuffledGridLaplacian(20)
	if got := TuneMulVec(small); got != Matrix(small) {
		t.Fatalf("TuneMulVec converted a small non-banded matrix: %T", got)
	}

	// One enormous row per window on an otherwise-diagonal matrix: even
	// after sorting, padding blows past the threshold and CSR stays.
	hostile := skewedCSR(4096, 256, 300)
	if ratio := hostile.ToSELL().PaddingRatio(); ratio <= sellMaxPadding {
		t.Fatalf("test matrix not hostile enough: padding ratio %v", ratio)
	}
	if got := TuneMulVec(hostile); got != Matrix(hostile) {
		t.Fatalf("TuneMulVec converted a padding-hostile matrix: %T", got)
	}
	if got := TuneMulVec(hostile); got != Matrix(hostile) {
		t.Fatal("cached negative decision not honored")
	}
}

// FuzzCSRToSELL drives the CSR→SELL conversion with fuzzed shapes and
// checks the invariants the solver relies on: bitwise MulVec parity
// with CSR, structural counts preserved, and a valid slot permutation.
func FuzzCSRToSELL(f *testing.F) {
	f.Add(uint64(1), uint(8), uint(0), uint(3))
	f.Add(uint64(42), uint(100), uint(4), uint(9))
	f.Add(uint64(7), uint(257), uint(129), uint(1))
	f.Add(uint64(99), uint(33), uint(1<<20), uint(5))
	f.Fuzz(func(t *testing.T, seed uint64, un, usigma, unnzRow uint) {
		n := int(un%1000) + 1
		sigma := int(usigma % (1 << 21))
		nnzRow := int(unnzRow%12) + 1

		// Deterministic pseudo-random sparse matrix from the seed.
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		coo := NewCOO(n)
		for i := 0; i < n; i++ {
			rows := int(next() % uint64(nnzRow))
			for k := 0; k < rows; k++ {
				j := int(next() % uint64(n))
				v := float64(int64(next()))/float64(1<<40) - 0.5
				coo.Add(i, j, v)
			}
		}
		a := coo.ToCSR()
		s := NewSELL(a, sigma)

		if s.Dim() != a.Dim() || s.NNZ() != a.NNZ() || s.MaxRowNonzeros() != a.MaxRowNonzeros() {
			t.Fatalf("structure mismatch: dim %d/%d nnz %d/%d maxrow %d/%d",
				s.Dim(), a.Dim(), s.NNZ(), a.NNZ(), s.MaxRowNonzeros(), a.MaxRowNonzeros())
		}

		// perm must be a bijection between real slots and rows.
		seen := make([]bool, n)
		real := 0
		for _, r := range s.perm {
			if r < 0 {
				continue
			}
			if int(r) >= n || seen[r] {
				t.Fatalf("perm slot maps to invalid or duplicate row %d", r)
			}
			seen[r] = true
			real++
		}
		if real != n {
			t.Fatalf("perm covers %d rows, want %d", real, n)
		}

		x := vec.New(n)
		vec.Random(x, seed+3)
		want, got := vec.New(n), vec.New(n)
		a.MulVec(want, x)
		s.MulVec(got, x)
		if !vec.Equal(want, got) {
			t.Fatal("SELL.MulVec differs from CSR bitwise")
		}
	})
}

package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"vrcg/internal/vec"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 2)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(1, 1, 3)
	if d.Dim() != 2 {
		t.Fatalf("Dim = %d", d.Dim())
	}
	if d.At(0, 1) != 1 {
		t.Fatalf("At = %v", d.At(0, 1))
	}
	x := vec.NewFrom([]float64{1, 2})
	y := vec.New(2)
	d.MulVec(y, x)
	if y[0] != 4 || y[1] != 7 {
		t.Fatalf("MulVec got %v", y)
	}
	if !d.IsSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	if d.NNZ() != 4 || d.MaxRowNonzeros() != 2 {
		t.Fatalf("NNZ=%d MaxRow=%d", d.NNZ(), d.MaxRowNonzeros())
	}
}

func TestNewDenseFrom(t *testing.T) {
	d := NewDenseFrom([][]float64{{1, 0}, {0, 2}})
	if d.At(1, 1) != 2 {
		t.Fatal("NewDenseFrom wrong entry")
	}
}

func TestDenseAsymmetric(t *testing.T) {
	d := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if d.IsSymmetric(0.5) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if !d.IsSymmetric(2) {
		t.Fatal("tolerance not honored")
	}
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	coo := NewCOO(3)
	coo.Add(0, 1, 1)
	coo.Add(0, 1, 2)
	coo.Add(2, 2, 5)
	csr := coo.ToCSR()
	if csr.At(0, 1) != 3 {
		t.Fatalf("duplicate sum = %v, want 3", csr.At(0, 1))
	}
	if csr.At(2, 2) != 5 {
		t.Fatalf("entry = %v", csr.At(2, 2))
	}
	if csr.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", csr.NNZ())
	}
}

func TestCOOCancellationDropsEntry(t *testing.T) {
	coo := NewCOO(2)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, -1)
	coo.Add(1, 1, 2)
	csr := coo.ToCSR()
	if csr.NNZ() != 1 {
		t.Fatalf("cancelled entry kept: NNZ = %d", csr.NNZ())
	}
}

func TestCOOAddSym(t *testing.T) {
	coo := NewCOO(3)
	coo.AddSym(0, 1, 4)
	coo.AddSym(2, 2, 7)
	csr := coo.ToCSR()
	if csr.At(0, 1) != 4 || csr.At(1, 0) != 4 {
		t.Fatal("AddSym did not mirror off-diagonal")
	}
	if csr.At(2, 2) != 7 {
		t.Fatal("AddSym doubled diagonal")
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2).Add(2, 0, 1)
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	a := RandomSPD(40, 6, 1)
	d := a.ToDense()
	x := vec.New(40)
	vec.Random(x, 5)
	y1 := vec.New(40)
	y2 := vec.New(40)
	a.MulVec(y1, x)
	d.MulVec(y2, x)
	if !vec.EqualTol(y1, y2, 1e-12) {
		t.Fatal("CSR MulVec differs from dense")
	}
}

func TestCSRDiag(t *testing.T) {
	a := Poisson1D(4)
	d := vec.New(4)
	a.Diag(d)
	for i, v := range d {
		if v != 2 {
			t.Fatalf("diag[%d] = %v", i, v)
		}
	}
}

func TestCSRSymmetryAndDominance(t *testing.T) {
	a := RandomSPD(30, 4, 7)
	if !a.IsSymmetric(0) {
		t.Fatal("RandomSPD not symmetric")
	}
	if !a.IsDiagonallyDominant() {
		t.Fatal("RandomSPD not diagonally dominant")
	}
}

func TestNewCSRSortsRows(t *testing.T) {
	// Row 0 has entries at columns 2 then 0, deliberately unsorted.
	m := NewCSR(3, []int{0, 2, 2, 3}, []int{2, 0, 1}, []float64{5, 1, 9})
	if m.At(0, 0) != 1 || m.At(0, 2) != 5 || m.At(2, 1) != 9 {
		t.Fatal("NewCSR mis-sorted rows")
	}
}

func TestDIAMulVecMatchesCSR(t *testing.T) {
	n := 50
	diag := make([]float64, n)
	up := make([]float64, n)
	down := make([]float64, n)
	for i := range diag {
		diag[i] = 4
		up[i] = -1
		down[i] = -1
	}
	dia := NewDIA(n, map[int][]float64{0: diag, 1: up, -1: down})
	csr := dia.ToCSR()
	x := vec.New(n)
	vec.Random(x, 3)
	y1 := vec.New(n)
	y2 := vec.New(n)
	dia.MulVec(y1, x)
	csr.MulVec(y2, x)
	if !vec.EqualTol(y1, y2, 1e-13) {
		t.Fatal("DIA MulVec differs from CSR")
	}
	if dia.MaxRowNonzeros() != 3 {
		t.Fatalf("DIA MaxRowNonzeros = %d", dia.MaxRowNonzeros())
	}
	if got, want := dia.NNZ(), csr.NNZ(); got != want {
		t.Fatalf("DIA NNZ = %d, CSR = %d", got, want)
	}
	if dia.At(0, 1) != -1 || dia.At(0, 0) != 4 || dia.At(0, 2) != 0 {
		t.Fatal("DIA At wrong")
	}
	offs := dia.Offsets()
	if len(offs) != 3 || offs[0] != -1 || offs[2] != 1 {
		t.Fatalf("Offsets = %v", offs)
	}
}

func TestStencilDegreesAndDims(t *testing.T) {
	cases := []struct {
		kind StencilKind
		d    int
		dims int
	}{
		{Stencil1D3, 3, 1},
		{Stencil2D5, 5, 2},
		{Stencil2D9, 9, 2},
		{Stencil3D7, 7, 3},
		{Stencil3D27, 27, 3},
	}
	for _, c := range cases {
		if c.kind.Degree() != c.d {
			t.Errorf("%v Degree = %d, want %d", c.kind, c.kind.Degree(), c.d)
		}
		if c.kind.Dims() != c.dims {
			t.Errorf("%v Dims = %d, want %d", c.kind, c.kind.Dims(), c.dims)
		}
		if c.kind.String() == "" {
			t.Errorf("%v String empty", c.kind)
		}
	}
}

// TestStencilMulMatchesCSRAllKinds: every kind's CSR has order
// m^Dims, is symmetric, has Degree entries in its fullest row, and the
// operator TuneMulVec runs it on gives its products bit for bit.
func TestStencilMulMatchesCSRAllKinds(t *testing.T) {
	for _, kind := range allStencilKinds {
		m := 5
		csr := kind.CSR(m)
		if want := int(math.Pow(float64(m), float64(kind.Dims()))); csr.Dim() != want {
			t.Fatalf("%v: order %d, want %d", kind, csr.Dim(), want)
		}
		x := vec.New(csr.Dim())
		vec.Random(x, uint64(kind))
		y1 := vec.New(csr.Dim())
		y2 := vec.New(csr.Dim())
		rowLoop(csr, y2, x)
		TuneMulVec(csr).MulVec(y1, x)
		if !bitsEqual(y1, y2) {
			t.Fatalf("%v: the tuned product differs from the CSR's", kind)
		}
		if !csr.IsSymmetric(0) {
			t.Fatalf("%v: not symmetric", kind)
		}
		if got := csr.MaxRowNonzeros(); got != kind.Degree() {
			t.Fatalf("%v: MaxRowNonzeros = %d", kind, got)
		}
	}
}

func TestStencilInteriorRowDegree(t *testing.T) {
	// For a 2D 5-point stencil on a 4x4 grid, the interior rows have all
	// 5 entries; check one.
	csr := Stencil2D5.CSR(4)
	idx := 1*4 + 1 // interior point
	count := 0
	for j := 0; j < csr.Dim(); j++ {
		if csr.At(idx, j) != 0 {
			count++
		}
	}
	if count != 5 {
		t.Fatalf("interior row has %d nonzeros, want 5", count)
	}
}

func TestPoissonGenerators(t *testing.T) {
	p1 := Poisson1D(10)
	if p1.Dim() != 10 || !p1.IsSymmetric(0) {
		t.Fatal("Poisson1D malformed")
	}
	p2 := Poisson2D(4)
	if p2.Dim() != 16 || !p2.IsSymmetric(0) {
		t.Fatal("Poisson2D malformed")
	}
	p3 := Poisson3D(3)
	if p3.Dim() != 27 || !p3.IsSymmetric(0) {
		t.Fatal("Poisson3D malformed")
	}
}

func TestTridiagToeplitz(t *testing.T) {
	a := TridiagToeplitz(5, 3, -1)
	if a.At(2, 2) != 3 || a.At(2, 3) != -1 || a.At(2, 1) != -1 || a.At(2, 4) != 0 {
		t.Fatal("TridiagToeplitz entries wrong")
	}
}

func TestGraphLaplacian(t *testing.T) {
	// Path graph 0-1-2 with unit weights, shift 0.5.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}}
	l := GraphLaplacian(3, edges, 0.5)
	if l.At(0, 0) != 1.5 || l.At(1, 1) != 2.5 || l.At(0, 1) != -1 {
		t.Fatalf("Laplacian entries wrong: %v %v %v", l.At(0, 0), l.At(1, 1), l.At(0, 1))
	}
	if !l.IsSymmetric(0) {
		t.Fatal("Laplacian not symmetric")
	}
}

func TestGraphLaplacianPanics(t *testing.T) {
	for _, f := range []func(){
		func() { GraphLaplacian(2, []Edge{{0, 0, 1}}, 1) },
		func() { GraphLaplacian(2, []Edge{{0, 1, -1}}, 1) },
		func() { GraphLaplacian(2, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRingLaplacianSpectrumEndpoint(t *testing.T) {
	// Constant vector is the eigenvector with eigenvalue shift.
	n := 8
	shift := 0.25
	l := RingLaplacian(n, shift)
	x := vec.New(n)
	vec.Fill(x, 1)
	y := vec.New(n)
	l.MulVec(y, x)
	for i := range y {
		if math.Abs(y[i]-shift) > 1e-13 {
			t.Fatalf("ring Laplacian constant-vector eigenvalue: got %v want %v", y[i], shift)
		}
	}
}

func TestPrescribedSpectrum(t *testing.T) {
	a := PrescribedSpectrum(5, 100)
	if math.Abs(a.At(0, 0)-1) > 1e-13 {
		t.Fatalf("smallest eigenvalue = %v", a.At(0, 0))
	}
	if math.Abs(a.At(4, 4)-100) > 1e-10 {
		t.Fatalf("largest eigenvalue = %v", a.At(4, 4))
	}
	one := PrescribedSpectrum(1, 7)
	if one.At(0, 0) != 7 {
		t.Fatal("n=1 spectrum wrong")
	}
}

func TestDiagonalMatrix(t *testing.T) {
	a := DiagonalMatrix(vec.NewFrom([]float64{1, 2, 3}))
	x := vec.NewFrom([]float64{1, 1, 1})
	y := vec.New(3)
	a.MulVec(y, x)
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Fatalf("DiagonalMatrix MulVec got %v", y)
	}
}

func TestPowerApply(t *testing.T) {
	a := Poisson1D(6)
	x := vec.New(6)
	vec.Random(x, 1)
	ps := PowerApply(a, x, 3)
	if len(ps) != 4 {
		t.Fatalf("PowerApply returned %d vectors", len(ps)) //nolint
	}
	if !vec.Equal(ps[0], x) {
		t.Fatal("A^0 x != x")
	}
	// Verify A * ps[i] == ps[i+1]
	tmp := vec.New(6)
	for i := 0; i < 3; i++ {
		a.MulVec(tmp, ps[i])
		if !vec.EqualTol(tmp, ps[i+1], 1e-13) {
			t.Fatalf("power %d mismatch", i+1)
		}
	}
}

func TestRandomSPDDeterministic(t *testing.T) {
	a := RandomSPD(25, 4, 99)
	b := RandomSPD(25, 4, 99)
	x := vec.New(25)
	vec.Random(x, 1)
	ya := vec.New(25)
	yb := vec.New(25)
	a.MulVec(ya, x)
	b.MulVec(yb, x)
	if !vec.Equal(ya, yb) {
		t.Fatal("RandomSPD not deterministic")
	}
}

func TestRandomSPDPositiveDefiniteQuadraticForm(t *testing.T) {
	// Diagonal dominance + symmetry implies x'Ax > 0 for x != 0; sample it.
	a := RandomSPD(30, 5, 3)
	y := vec.New(30)
	for trial := 0; trial < 10; trial++ {
		x := vec.New(30)
		vec.Random(x, uint64(trial+1))
		a.MulVec(y, x)
		if q := vec.Dot(x, y); q <= 0 {
			t.Fatalf("quadratic form non-positive: %v", q)
		}
	}
}

// Property: stencil operators are symmetric, i.e. <Ax, y> == <x, Ay>.
func TestPropStencilSelfAdjoint(t *testing.T) {
	f := func(seed uint64, kindRaw uint8, mRaw uint8) bool {
		kind := allStencilKinds[int(kindRaw)%len(allStencilKinds)]
		m := int(mRaw)%5 + 2
		st := kind.CSR(m)
		n := st.Dim()
		x := vec.New(n)
		y := vec.New(n)
		vec.Random(x, seed)
		vec.Random(y, seed^0xdeadbeef)
		ax := vec.New(n)
		ay := vec.New(n)
		st.MulVec(ax, x)
		st.MulVec(ay, y)
		lhs := vec.Dot(ax, y)
		rhs := vec.Dot(x, ay)
		return math.Abs(lhs-rhs) <= 1e-10*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: quadratic form of stencil Laplacians is nonnegative
// (positive semidefinite even before boundary effects; with Dirichlet
// boundaries strictly positive for nonzero x).
func TestPropStencilPositive(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw)%6 + 2
		st := Stencil2D5.CSR(m)
		n := st.Dim()
		x := vec.New(n)
		vec.Random(x, seed)
		ax := vec.New(n)
		st.MulVec(ax, x)
		return vec.Dot(x, ax) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: COO assembly order does not change the CSR result.
func TestPropCOOOrderInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		n := 12
		// Build the same entries in two different orders.
		entries := [][3]int{}
		s := seed
		next := func() uint64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		for k := 0; k < 30; k++ {
			i := int(next() % uint64(n))
			j := int(next() % uint64(n))
			v := int(next()%7) + 1
			entries = append(entries, [3]int{i, j, v})
		}
		fwd := NewCOO(n)
		rev := NewCOO(n)
		for _, e := range entries {
			fwd.Add(e[0], e[1], float64(e[2]))
		}
		for k := len(entries) - 1; k >= 0; k-- {
			e := entries[k]
			rev.Add(e[0], e[1], float64(e[2]))
		}
		a := fwd.ToCSR()
		b := rev.ToCSR()
		x := vec.New(n)
		vec.Random(x, seed)
		ya := vec.New(n)
		yb := vec.New(n)
		a.MulVec(ya, x)
		b.MulVec(yb, x)
		return vec.EqualTol(ya, yb, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if a == 0 || b == 0 {
		return d < tol
	}
	return d/math.Max(math.Abs(a), math.Abs(b)) < tol
}

func TestNewAndClone(t *testing.T) {
	v := New(5)
	if len(v) != 5 {
		t.Fatalf("Len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("component %d = %v, want 0", i, x)
		}
	}
	v[2] = 3.5
	w := Clone(v)
	w[2] = -1
	if v[2] != 3.5 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestNewFromCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	v := NewFrom(src)
	src[0] = 99
	if v[0] != 1 {
		t.Fatal("NewFrom aliases source slice")
	}
}

func TestZeroFill(t *testing.T) {
	v := NewFrom([]float64{1, 2, 3})
	Fill(v, 7)
	for _, x := range v {
		if x != 7 {
			t.Fatalf("Fill left %v", x)
		}
	}
	Zero(v)
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Zero left %v", x)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	v := New(3)
	Copy(v, NewFrom([]float64{4, 5, 6}))
	if v[0] != 4 || v[2] != 6 {
		t.Fatalf("CopyFrom got %v", v)
	}
}

func TestCopyFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Copy(New(3), New(4))
}

func TestEqualAndTol(t *testing.T) {
	a := NewFrom([]float64{1, 2})
	b := NewFrom([]float64{1, 2})
	if !Equal(a, b) {
		t.Fatal("identical vectors reported unequal")
	}
	b[1] += 1e-12
	if Equal(a, b) {
		t.Fatal("different vectors reported equal")
	}
	if !EqualTol(a, b, 1e-9) {
		t.Fatal("EqualTol rejected close vectors")
	}
	if EqualTol(a, New(3), 1) {
		t.Fatal("EqualTol accepted different lengths")
	}
}

func TestDotBasic(t *testing.T) {
	x := NewFrom([]float64{1, 2, 3})
	y := NewFrom([]float64{4, -5, 6})
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestNorm2(t *testing.T) {
	v := NewFrom([]float64{3, 4})
	if got := Norm2(v); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if Norm2(New(4)) != 0 {
		t.Fatal("Norm2 of zero vector != 0")
	}
	nan := math.NaN()
	for _, x := range [][]float64{{nan}, {nan, nan}, {nan, 0}, {0, nan}, {3, nan}, {nan, 4}} {
		if got := Norm2(NewFrom(x)); !math.IsNaN(got) {
			t.Errorf("Norm2(%v) = %v, want NaN", x, got)
		}
	}
}

func TestNorm2Overflow(t *testing.T) {
	v := NewFrom([]float64{1e200, 1e200})
	want := 1e200 * math.Sqrt(2)
	if got := Norm2(v); !almostEqual(got, want, 1e-14) {
		t.Fatalf("Norm2 overflowed: %v want %v", got, want)
	}
}

func TestAxpyFamily(t *testing.T) {
	x := NewFrom([]float64{1, 2})
	y := NewFrom([]float64{10, 20})
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy got %v", y)
	}
	dst := New(2)
	AxpyTo(dst, -1, x, y)
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("AxpyTo got %v", dst)
	}
	Xpay(x, 0.5, y)
	if y[0] != 1+6 || y[1] != 2+12 {
		t.Fatalf("Xpay got %v", y)
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	x := NewFrom([]float64{math.NaN()})
	y := NewFrom([]float64{5})
	Axpy(0, x, y)
	if y[0] != 5 {
		t.Fatal("Axpy with alpha=0 modified y")
	}
}

func TestScaleOps(t *testing.T) {
	x := NewFrom([]float64{1, -2})
	Scale(3, x)
	if x[0] != 3 || x[1] != -6 {
		t.Fatalf("Scale got %v", x)
	}
	dst := New(2)
	ScaleTo(dst, -1, x)
	if dst[0] != -3 || dst[1] != 6 {
		t.Fatalf("ScaleTo got %v", dst)
	}
}

func TestAddSubMulDiv(t *testing.T) {
	x := NewFrom([]float64{4, 9})
	y := NewFrom([]float64{2, 3})
	dst := New(2)
	Add(dst, x, y)
	if dst[0] != 6 || dst[1] != 12 {
		t.Fatalf("Add got %v", dst)
	}
	Sub(dst, x, y)
	if dst[0] != 2 || dst[1] != 6 {
		t.Fatalf("Sub got %v", dst)
	}
	MulElem(dst, x, y)
	if dst[0] != 8 || dst[1] != 27 {
		t.Fatalf("MulElem got %v", dst)
	}
}

func TestFusedCGUpdate(t *testing.T) {
	p := NewFrom([]float64{1, 1})
	ap := NewFrom([]float64{2, 0})
	x := NewFrom([]float64{0, 0})
	r := NewFrom([]float64{3, 4})
	rr := FusedCGUpdate(0.5, p, ap, x, r)
	// x = [0.5 0.5], r = [3-1, 4-0] = [2 4], rr = 20
	if x[0] != 0.5 || x[1] != 0.5 {
		t.Fatalf("x got %v", x)
	}
	if r[0] != 2 || r[1] != 4 {
		t.Fatalf("r got %v", r)
	}
	if rr != 20 {
		t.Fatalf("rr = %v, want 20", rr)
	}
}

func TestDotPairAndBatch(t *testing.T) {
	x := NewFrom([]float64{1, 2})
	y := NewFrom([]float64{3, 4})
	z := NewFrom([]float64{5, 6})
	xy, xz := DotPair(x, y, z)
	if xy != 11 || xz != 17 {
		t.Fatalf("DotPair got %v %v", xy, xz)
	}
	dots := make([]float64, 2)
	Dots(dots, []Vector{x, x}, []Vector{y, z}, make([]float64, 2))
	if dots[0] != 11 || dots[1] != 17 {
		t.Fatalf("Dots got %v", dots)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := New(64)
	b := New(64)
	Random(a, 42)
	Random(b, 42)
	if !Equal(a, b) {
		t.Fatal("Random not deterministic for same seed")
	}
	Random(b, 43)
	if Equal(a, b) {
		t.Fatal("Random identical for different seeds")
	}
	for _, x := range a {
		if x < -1 || x >= 1 {
			t.Fatalf("Random out of range: %v", x)
		}
	}
}

func TestStringForms(t *testing.T) {
	short := NewFrom([]float64{1, 2})
	if String(short) == "" {
		t.Fatal("empty String for short vector")
	}
	long := New(100)
	s := String(long)
	if len(s) > 200 {
		t.Fatalf("long vector String not abbreviated: %d chars", len(s))
	}
}

// --- property-based tests ---

func randomVecPair(seed uint64, n int) (Vector, Vector) {
	x := New(n)
	y := New(n)
	Random(x, seed)
	Random(y, seed+1)
	return x, y
}

func TestPropDotSymmetry(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%256 + 1
		x, y := randomVecPair(seed, n)
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropDotLinearity(t *testing.T) {
	f := func(seed uint64, sz uint8, aRaw int16) bool {
		n := int(sz)%128 + 1
		a := float64(aRaw) / 64
		x, y := randomVecPair(seed, n)
		z := New(n)
		Random(z, seed+2)
		// <a*x + z, y> == a*<x,y> + <z,y> up to roundoff
		ax := Clone(x)
		Scale(a, ax)
		Add(ax, ax, z)
		lhs := Dot(ax, y)
		rhs := a*Dot(x, y) + Dot(z, y)
		return almostEqual(lhs, rhs, 1e-10) || math.Abs(lhs-rhs) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropNormDotConsistency(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%256 + 1
		x := New(n)
		Random(x, seed)
		nrm := Norm2(x)
		return almostEqual(nrm*nrm, Dot(x, x), 1e-12) || math.Abs(nrm*nrm-Dot(x, x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropCauchySchwarz(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%256 + 1
		x, y := randomVecPair(seed, n)
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz)%256 + 1
		x, y := randomVecPair(seed, n)
		s := New(n)
		Add(s, x, y)
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropFusedMatchesUnfused(t *testing.T) {
	f := func(seed uint64, sz uint8, aRaw int16) bool {
		n := int(sz)%128 + 1
		alpha := float64(aRaw) / 128
		p := New(n)
		ap := New(n)
		Random(p, seed)
		Random(ap, seed+1)
		x1 := New(n)
		r1 := New(n)
		Random(r1, seed+2)
		x2 := Clone(x1)
		r2 := Clone(r1)

		rr := FusedCGUpdate(alpha, p, ap, x1, r1)

		Axpy(alpha, p, x2)
		Axpy(-alpha, ap, r2)
		if !EqualTol(x1, x2, 1e-14) || !EqualTol(r1, r2, 1e-14) {
			return false
		}
		return almostEqual(rr, Dot(r2, r2), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

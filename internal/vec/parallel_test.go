package vec

import (
	"testing"
	"testing/quick"
)

// forcedPool returns a pool that parallelizes even tiny vectors.
func forcedPool(workers int) *Pool {
	return NewPoolMinChunk(workers, 1)
}

func TestNewPoolClampsWorkers(t *testing.T) {
	if NewPool(0).Workers() != 1 {
		t.Fatal("worker count not clamped to 1")
	}
	if NewPool(-5).Workers() != 1 {
		t.Fatal("negative workers not clamped")
	}
	if NewPool(8).Workers() != 8 {
		t.Fatal("worker count not preserved")
	}
}

func TestPoolDotMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000, 4097} {
		x := New(n)
		y := New(n)
		Random(x, uint64(n))
		Random(y, uint64(n)+1)
		want := Dot(x, y)
		for _, w := range []int{1, 2, 3, 8} {
			got := forcedPool(w).Dot(x, y)
			if !almostEqual(got, want, 1e-12) {
				t.Fatalf("n=%d workers=%d: Dot=%v want %v", n, w, got, want)
			}
		}
	}
}

func TestPoolDotDeterministic(t *testing.T) {
	x := New(10000)
	y := New(10000)
	Random(x, 9)
	Random(y, 10)
	p := forcedPool(4)
	first := p.Dot(x, y)
	for i := 0; i < 20; i++ {
		if got := p.Dot(x, y); got != first {
			t.Fatalf("nondeterministic parallel dot: %v vs %v", got, first)
		}
	}
}

func TestPoolAxpyMatchesSerial(t *testing.T) {
	n := 5000
	x := New(n)
	Random(x, 3)
	y1 := New(n)
	Random(y1, 4)
	y2 := Clone(y1)
	Axpy(1.5, x, y1)
	forcedPool(4).Axpy(1.5, x, y2)
	if !EqualTol(y1, y2, 0) {
		t.Fatal("parallel Axpy differs from serial")
	}
}

func TestPoolXpayMatchesSerial(t *testing.T) {
	n := 5000
	x := New(n)
	Random(x, 5)
	y1 := New(n)
	Random(y1, 6)
	y2 := Clone(y1)
	Xpay(x, -0.25, y1)
	forcedPool(3).Xpay(x, -0.25, y2)
	if !EqualTol(y1, y2, 0) {
		t.Fatal("parallel Xpay differs from serial")
	}
}

func TestPoolFusedCGUpdateMatchesSerial(t *testing.T) {
	n := 3000
	p := New(n)
	ap := New(n)
	Random(p, 7)
	Random(ap, 8)
	x1 := New(n)
	r1 := New(n)
	Random(r1, 9)
	x2 := Clone(x1)
	r2 := Clone(r1)
	rr1 := FusedCGUpdate(0.7, p, ap, x1, r1)
	rr2 := forcedPool(4).FusedCGUpdate(0.7, p, ap, x2, r2)
	if !EqualTol(x1, x2, 0) || !EqualTol(r1, r2, 0) {
		t.Fatal("parallel fused update differs from serial")
	}
	if !almostEqual(rr1, rr2, 1e-12) {
		t.Fatalf("rr mismatch: %v vs %v", rr1, rr2)
	}
}

func TestPoolSmallFallsBackToSerial(t *testing.T) {
	p := NewPool(8) // default minChunk large
	x := NewFrom([]float64{1, 2, 3})
	y := NewFrom([]float64{4, 5, 6})
	if got := p.Dot(x, y); got != 32 {
		t.Fatalf("small-vector Dot = %v", got)
	}
}

func TestPropPoolDotMatchesSerial(t *testing.T) {
	f := func(seed uint64, sz uint16, workers uint8) bool {
		n := int(sz)%4096 + 1
		w := int(workers)%7 + 1
		x := New(n)
		y := New(n)
		Random(x, seed)
		Random(y, seed^0xabcdef)
		return almostEqual(forcedPool(w).Dot(x, y), Dot(x, y), 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

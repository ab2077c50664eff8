package depth

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := Log2Ceil(x); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLog2CeilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Log2Ceil(0)
}

func TestScalarOp(t *testing.T) {
	v := ScalarOp(At(3), At(7))
	if v.Ready != 8 {
		t.Fatalf("ScalarOp ready %v, want 8", v.Ready)
	}
	if ScalarOp().Ready != 1 {
		t.Fatalf("no-input ScalarOp ready %v, want 1", ScalarOp().Ready)
	}
}

func TestScalarFanIn(t *testing.T) {
	ins := []Val{At(0), At(0), At(0), At(0), At(0), At(0), At(0), At(0)}
	if got := ScalarFanIn(ins).Ready; got != 3 {
		t.Fatalf("fan-in of 8 at depth %v, want 3", got)
	}
	if got := ScalarFanIn([]Val{At(5)}).Ready; got != 5 {
		t.Fatalf("singleton fan-in ready %v, want 5", got)
	}
	if got := ScalarFanIn(nil).Ready; got != 0 {
		t.Fatalf("empty fan-in ready %v, want 0", got)
	}
	// Latest input dominates.
	if got := ScalarFanIn([]Val{At(0), At(10)}).Ready; got != 11 {
		t.Fatalf("fan-in with late input ready %v, want 11", got)
	}
}

func TestElementwiseAndMatVecDot(t *testing.T) {
	m := NewModel(1024, 5)
	v := Elementwise([]Val{At(2)}, VecAt(1))
	if v.Ready != 3 {
		t.Fatalf("Elementwise ready %v, want 3", v.Ready)
	}
	mv := m.MatVec(VecAt(0))
	if mv.Ready != 1+3 { // 1 + ceil(log2 5) = 1 + 3
		t.Fatalf("MatVec ready %v, want 4", mv.Ready)
	}
	d := m.Dot(VecAt(0), VecAt(2))
	if d.Ready != 2+1+10 {
		t.Fatalf("Dot ready %v, want 13", d.Ready)
	}
}

func TestModelPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewModel(0, 1) },
		func() { NewModel(1, 0) },
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

func TestSteadyStateRate(t *testing.T) {
	// Completion times 0, 5, 10, ... have rate exactly 5.
	cs := make([]Clock, 20)
	for i := range cs {
		cs[i] = Clock(5 * i)
	}
	if r := SteadyStateRate(cs); math.Abs(r-5) > 1e-12 {
		t.Fatalf("rate %v, want 5", r)
	}
}

// --- claim C1: standard CG per-iteration time grows like 2*log2(N) ---

func TestCGRateGrowsLogN(t *testing.T) {
	d := 5
	prev := 0.0
	for _, logN := range []int{6, 10, 14, 18} {
		n := 1 << logN
		rate := CGRate(n, d)
		// Expected: 2*logN + log2(d) + c for a small constant c.
		lower := 2 * float64(logN)
		upper := 2*float64(logN) + float64(Log2Ceil(d)) + 8
		if rate < lower || rate > upper {
			t.Fatalf("N=2^%d: CG rate %.2f outside [%v, %v]", logN, rate, lower, upper)
		}
		if rate <= prev {
			t.Fatalf("CG rate not increasing with N: %v after %v", rate, prev)
		}
		prev = rate
	}
}

func TestCGRateSlopeIsTwoPerLogN(t *testing.T) {
	d := 5
	r10 := CGRate(1<<10, d)
	r20 := CGRate(1<<20, d)
	slope := (r20 - r10) / 10
	if math.Abs(slope-2) > 0.25 {
		t.Fatalf("CG rate slope per log2(N) = %.3f, want ~2", slope)
	}
}

// --- claim C4: VRCG with k = log N runs in ~ log(log N) per iteration ---

func TestVRCGRateDoubleLog(t *testing.T) {
	d := 5
	for _, logN := range []int{10, 14, 20} {
		n := 1 << logN
		k := logN
		rate := VRCGRate(n, d, k)
		// Expected: ~ log2(6k+5) + log2(d) + small constant, crucially
		// independent of the 2*logN term.
		bound := float64(Log2Ceil(6*k+5)) + float64(Log2Ceil(d)) + 10
		if rate > bound {
			t.Fatalf("N=2^%d k=%d: VRCG rate %.2f exceeds log-log bound %.2f", logN, k, rate, bound)
		}
		if cg := CGRate(n, d); rate >= cg {
			t.Fatalf("N=2^%d: VRCG rate %.2f not below CG rate %.2f", logN, rate, cg)
		}
	}
}

func TestVRCGBeatsCGByGrowingFactor(t *testing.T) {
	// The speedup factor CG/VRCG must grow with N (log N / log log N).
	d := 5
	f14 := CGRate(1<<14, d) / VRCGRate(1<<14, d, 14)
	f22 := CGRate(1<<22, d) / VRCGRate(1<<22, d, 22)
	if f22 <= f14 {
		t.Fatalf("speedup not growing: %.2f at 2^14 vs %.2f at 2^22", f14, f22)
	}
	if f22 < 2.5 {
		t.Fatalf("speedup at N=2^22 only %.2f", f22)
	}
}

// --- claim C2: k = 1 approximately doubles parallel speed ---

func TestK1ApproximatelyDoubles(t *testing.T) {
	d := 5
	for _, logN := range []int{14, 20, 26} {
		n := 1 << logN
		ratio := CGRate(n, d) / VRCGRate(n, d, 1)
		// "approximately double": the ratio tends to 2 from below as N
		// grows (the additive constants fade).
		if ratio < 1.4 || ratio > 2.2 {
			t.Fatalf("N=2^%d: k=1 speedup %.3f not ~2", logN, ratio)
		}
	}
	// Monotone approach towards 2.
	r14 := CGRate(1<<14, d) / VRCGRate(1<<14, d, 1)
	r26 := CGRate(1<<26, d) / VRCGRate(1<<26, d, 1)
	if r26 < r14 {
		t.Fatalf("k=1 speedup should approach 2 with N: %.3f then %.3f", r14, r26)
	}
	if r26 < 1.75 {
		t.Fatalf("k=1 speedup at N=2^26 should be near 2, got %.3f", r26)
	}
}

// --- claim C6: per-iteration time = max(log d, log log N) + O(1) ---

func TestDegreeTermDominatesForDenseRows(t *testing.T) {
	// Claim C6 is a max, not a sum: below the crossover the rate is set
	// by the scalar contraction and is flat in d; above it, the matvec
	// gather dominates and the rate grows ~1 per doubling of d.
	n := 1 << 16
	k := 16
	r10 := VRCGRate(n, 1<<10, k)
	r12 := VRCGRate(n, 1<<12, k)
	r14 := VRCGRate(n, 1<<14, k)
	if !(r10 < r12 && r12 < r14) {
		t.Fatalf("rates should grow with degree above crossover: %.2f, %.2f, %.2f", r10, r12, r14)
	}
	slope := (r14 - r10) / 4
	if math.Abs(slope-1) > 0.3 {
		t.Fatalf("degree slope per log2(d) = %.3f, want ~1", slope)
	}
}

func TestMaxLogDLogLogNShape(t *testing.T) {
	// Below the crossover (log d < log log N term) the rate must be flat
	// in d; far above it the gather term rules.
	n := 1 << 20
	k := 20
	flat3 := VRCGRate(n, 3, k)
	flat27 := VRCGRate(n, 27, k)
	if math.Abs(flat3-flat27) > 1e-9 {
		t.Fatalf("below crossover rate should not depend on d: %.2f vs %.2f", flat3, flat27)
	}
	big := VRCGRate(n, 1<<14, k)
	if big-flat3 < 3 {
		t.Fatalf("max(log d, log log N) shape violated: flat %.2f vs dense %.2f", flat3, big)
	}
}

func TestSimulatePanics(t *testing.T) {
	m := NewModel(16, 3)
	for _, f := range []func(){
		func() { SimulateCG(m, 1) },
		func() { SimulateVRCG(m, 0, 16) },
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

// Property: completion clocks are strictly increasing for all algorithms
// (time cannot stand still across iterations).
func TestPropCompletionsMonotone(t *testing.T) {
	f := func(logNRaw, dRaw, kRaw uint8) bool {
		logN := int(logNRaw)%16 + 4
		d := int(dRaw)%30 + 2
		k := int(kRaw)%10 + 1
		m := NewModel(1<<logN, d)
		for _, cs := range [][]Clock{
			SimulateCG(m, 20),
			SimulateVRCG(m, k, 20),
		} {
			for i := 1; i < len(cs); i++ {
				if cs[i] <= cs[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the VRCG rate is bracketed by the C6 bound — at least the
// gather/contraction floor, at most the pipeline-limited amortization —
// and the paper's k = log N choice is never beaten by k = 1 for large N.
func TestPropVRCGRateBounds(t *testing.T) {
	f := func(logNRaw, kRaw uint8) bool {
		logN := int(logNRaw)%14 + 8
		k := int(kRaw)%(2*logN) + 1
		n := 1 << logN
		d := 5
		r := VRCGRate(n, d, k)
		lower := math.Max(float64(Log2Ceil(d)+3), float64(Log2Ceil(6*k+5)))
		upper := float64(Log2Ceil(n))/float64(k) + float64(Log2Ceil(6*k+5)) + float64(Log2Ceil(d)) + 16
		return r >= lower-1e-9 && r <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The paper's recommended k = log N beats small fixed k for large N (the
// contraction overhead log(6k+5) is far cheaper than the log(N)/k
// pipeline penalty of small k).
func TestLogNLookaheadOptimalRegion(t *testing.T) {
	n := 1 << 22
	d := 5
	if rLog, r1 := VRCGRate(n, d, 22), VRCGRate(n, d, 1); rLog >= r1 {
		t.Fatalf("k=logN rate %.2f should beat k=1 rate %.2f", rLog, r1)
	}
	// And far beyond log N the contraction overhead creeps back up.
	if rHuge, rLog := VRCGRate(n, d, 1<<12), VRCGRate(n, d, 22); rHuge <= rLog {
		t.Fatalf("k >> logN rate %.2f should exceed k=logN rate %.2f", rHuge, rLog)
	}
}

// --- the window formulation: beyond the paper's log log N ---

func TestWindowFormConstantRate(t *testing.T) {
	// With k = log N, the window formulation's rate must be independent
	// of N (no log log N term) and at or below the contract form's.
	d := 5
	prev := 0.0
	for i, lg := range []int{10, 16, 22, 28} {
		n := 1 << lg
		w := VRCGWindowRate(n, d, lg)
		c := VRCGRate(n, d, lg)
		if w > c+1e-9 {
			t.Fatalf("logN=%d: window rate %.2f above contract rate %.2f", lg, w, c)
		}
		if i > 0 && w > prev+0.5 {
			t.Fatalf("window rate grew with N: %.2f after %.2f", w, prev)
		}
		prev = w
	}
}

func TestWindowFormBeatsContractAtLargeN(t *testing.T) {
	// The contract form pays log2(6k+5); the window form does not. At
	// k = 28 that's a ~7-step difference.
	n := 1 << 28
	w := VRCGWindowRate(n, 5, 28)
	c := VRCGRate(n, 5, 28)
	if c-w < 3 {
		t.Fatalf("window form should beat contract form clearly: %.2f vs %.2f", w, c)
	}
}

func TestWindowFormStillNeedsLookahead(t *testing.T) {
	// With k too small, the log(N)/k pipeline term dominates: small k
	// must be slower than k = log N.
	n := 1 << 20
	if small, big := VRCGWindowRate(n, 5, 2), VRCGWindowRate(n, 5, 20); small <= big {
		t.Fatalf("k=2 rate %.2f should exceed k=logN rate %.2f", small, big)
	}
}

func TestWindowFormPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulateVRCGWindow(NewModel(16, 3), 0, 10)
}

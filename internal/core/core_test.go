package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

func relErrT(got, want float64) float64 {
	den := math.Abs(want)
	if den == 0 {
		den = 1
	}
	return math.Abs(got-want) / den
}

// --- Window / Families unit tests ---

// NewFamilies builds depth-k families from r0 = p0 on a serial
// workspace of their own, for the tests that step them by hand.
func NewFamilies(a sparse.Matrix, r0 vec.Vector, k int) *Families {
	f := new(Families)
	f.Bind(engine.NewWorkspace(a.Dim(), nil), 0, k)
	f.Rebuild(a, r0)
	return f
}

// Step advances the families by one CG iteration: StepR, then StepP.
func (f *Families) Step(a Operator, lambda, alpha float64) {
	f.StepR(lambda)
	f.StepP(a, alpha)
}

// CheckInvariant verifies that every stored power really equals A times
// its predecessor within tol, returning the largest violation.
func (f *Families) CheckInvariant(a sparse.Matrix, tol float64) (maxErr float64, ok bool) {
	n := a.Dim()
	tmp := vec.New(n)
	check := func(hi, lo vec.Vector) {
		a.MulVec(tmp, lo)
		for i := range tmp {
			d := tmp[i] - hi[i]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	for i := 1; i <= f.K; i++ {
		check(f.R[i], f.R[i-1])
	}
	for i := 1; i <= f.K+1; i++ {
		check(f.P[i], f.P[i-1])
	}
	return maxErr, maxErr <= tol
}

func TestNewWindowSizes(t *testing.T) {
	for _, k := range []int{0, 1, 3, 7} {
		w := NewWindow(k)
		if len(w.M) != 2*k+1 || len(w.N) != 2*k+2 || len(w.W) != 2*k+3 {
			t.Fatalf("k=%d: window sizes %d/%d/%d", k, len(w.M), len(w.N), len(w.W))
		}
	}
}

func TestNewWindowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow(-1)
}

func TestWindowClone(t *testing.T) {
	w := NewWindow(1)
	w.M[0] = 5
	c := w.Clone()
	c.M[0] = 9
	if w.M[0] != 5 {
		t.Fatal("Clone aliases storage")
	}
}

func TestFamiliesStartup(t *testing.T) {
	a := sparse.Poisson1D(12)
	r0 := vec.New(12)
	vec.Random(r0, 1)
	k := 3
	fam := NewFamilies(a, r0, k)
	if len(fam.R) != k+1 || len(fam.P) != k+2 {
		t.Fatalf("family sizes %d/%d", len(fam.R), len(fam.P))
	}
	if !vec.Equal(fam.R[0], r0) {
		t.Fatal("R[0] != r0")
	}
	if maxErr, ok := fam.CheckInvariant(a, 1e-12); !ok {
		t.Fatalf("power invariant violated at startup: %g", maxErr)
	}
}

func TestFamiliesStepPreservesPowerInvariant(t *testing.T) {
	a := sparse.Poisson1D(16)
	r0 := vec.New(16)
	vec.Random(r0, 2)
	fam := NewFamilies(a, r0, 2)
	// Arbitrary but sane scalars.
	fam.Step(a, 0.3, 0.5)
	if maxErr, ok := fam.CheckInvariant(a, 1e-10); !ok {
		t.Fatalf("power invariant violated after step: %g", maxErr)
	}
	fam.Step(a, 0.1, 0.9)
	if maxErr, ok := fam.CheckInvariant(a, 1e-10); !ok {
		t.Fatalf("power invariant violated after two steps: %g", maxErr)
	}
}

func TestInitDirectMatchesBruteForce(t *testing.T) {
	a := sparse.Poisson1D(10)
	r0 := vec.New(10)
	vec.Random(r0, 3)
	k := 2
	fam := NewFamilies(a, r0, k)
	w := NewWindow(k)
	w.InitDirect(engine.NewWorkspace(10, nil), fam)

	// Brute force: materialize A^i r0 up to 2k+2 and dot directly.
	powsR := sparse.PowerApply(a, r0, 2*k+2)
	for i := 0; i <= 2*k; i++ {
		want := vec.Dot(r0, powsR[i])
		if relErrT(w.M[i], want) > 1e-12 {
			t.Fatalf("M[%d] = %g, want %g", i, w.M[i], want)
		}
	}
	// p0 = r0 at startup, so N and W compare against the same powers.
	for i := 0; i <= 2*k+1; i++ {
		want := vec.Dot(r0, powsR[i])
		if relErrT(w.N[i], want) > 1e-12 {
			t.Fatalf("N[%d] = %g, want %g", i, w.N[i], want)
		}
	}
	for i := 0; i <= 2*k+2; i++ {
		want := vec.Dot(r0, powsR[i])
		if relErrT(w.W[i], want) > 1e-12 {
			t.Fatalf("W[%d] = %g, want %g", i, w.W[i], want)
		}
	}
}

func TestInitDirectSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := sparse.Poisson1D(10)
	NewWindow(2).InitDirect(engine.NewWorkspace(10, nil), NewFamilies(a, vec.New(10), 1))
}

// TestWindowStepTracksDirectDots is the central §5 verification: run CG
// on vectors, run the window on scalars, and require every window entry
// to match the directly computed inner product at every iteration.
func TestWindowStepTracksDirectDots(t *testing.T) {
	for _, k := range []int{0, 1, 2, 4} {
		a := sparse.Poisson2D(5) // n = 25
		n := a.Dim()
		r := vec.New(n)
		vec.Random(r, 7)
		fam := NewFamilies(a, r, k)
		win := NewWindow(k)
		ws := engine.NewWorkspace(n, nil)
		win.InitDirect(ws, fam)

		// The recurrences are exact in exact arithmetic; in floating
		// point the M update cancels catastrophically as the residual
		// shrinks, so the check uses a tolerance relative to the
		// window's initial scale plus a relative component.
		scale0 := win.M[0]
		for iter := 0; iter < 6; iter++ {
			rr := win.RR()
			pap := win.PAP()
			if pap <= 0 {
				t.Fatalf("k=%d iter=%d: pap=%g", k, iter, pap)
			}
			lambda := rr / pap
			fam.StepR(lambda)
			rrNew := win.PeekRR(lambda)
			alpha := rrNew / rr
			fam.StepP(a, alpha)
			topN, topW1, topW2 := fam.DirectTops(ws)
			win.Step(lambda, alpha, topN, topW1, topW2)

			within := func(got, want float64) bool {
				return relErrT(got, want) <= 1e-5 || math.Abs(got-want) <= 1e-10*scale0
			}
			// Every window entry must equal its direct evaluation.
			rPows := sparse.PowerApply(a, fam.Residual(), 2*k+2)
			pPows := sparse.PowerApply(a, fam.Direction(), 2*k+2)
			for i := 0; i <= 2*k; i++ {
				want := vec.Dot(fam.Residual(), rPows[i])
				if !within(win.M[i], want) {
					t.Fatalf("k=%d iter=%d M[%d]: %g vs %g", k, iter, i, win.M[i], want)
				}
			}
			for i := 0; i <= 2*k+1; i++ {
				want := vec.Dot(fam.Residual(), pPows[i])
				if !within(win.N[i], want) {
					t.Fatalf("k=%d iter=%d N[%d]: %g vs %g", k, iter, i, win.N[i], want)
				}
			}
			for i := 0; i <= 2*k+2; i++ {
				want := vec.Dot(fam.Direction(), pPows[i])
				if !within(win.W[i], want) {
					t.Fatalf("k=%d iter=%d W[%d]: %g vs %g", k, iter, i, win.W[i], want)
				}
			}
		}
	}
}

// --- Coefficient-polynomial (equation *) tests ---

func TestCoeffPairBasics(t *testing.T) {
	r := NewCoeffR()
	p := NewCoeffP()
	if r.Degree() != 0 || p.Degree() != 0 {
		t.Fatal("fresh coefficient pairs should have degree 0")
	}
	// A r = 0 − (−1) A r: the shifted representation, Rho = [0, 1].
	shifted := NewCoeffs(2)
	shifted.StepR(CoeffPair{}, r, -1)
	if s := shifted.CoeffPair; s.Degree() != 1 || s.Rho[0] != 0 || s.Rho[1] != 1 || len(s.Pi) != 0 {
		t.Fatalf("A r wrong: %+v", s)
	}
	sum := r.AddScaled(2, p)
	if sum.Rho[0] != 1 || sum.Pi[0] != 2 {
		t.Fatalf("AddScaled wrong: %+v", sum)
	}
	c := sum.Clone()
	c.Rho[0] = 9
	if sum.Rho[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestStepCGDegreeGrowth(t *testing.T) {
	r := NewCoeffR()
	p := NewCoeffP()
	for j := 1; j <= 5; j++ {
		r, p = StepCG(r, p, 0.5, 0.25)
		if r.Degree() != j || p.Degree() != j {
			t.Fatalf("after %d steps degrees %d/%d", j, r.Degree(), p.Degree())
		}
	}
}

// refAxpy is x + s A^shift y as the allocating algebra computed it
// before Coeffs: A prepends a zero to a non-empty y, then a copy of x
// takes s*y added entry by entry.
func refAxpy(x, y []float64, s float64, shift int) []float64 {
	if len(y) > 0 && shift == 1 {
		y = append([]float64{0}, y...)
	}
	out := make([]float64, max(len(x), len(y)))
	copy(out, x)
	for i := range y {
		out[i] += s * y[i]
	}
	return out
}

func refPair(x, y CoeffPair, s float64, shift int) CoeffPair {
	return CoeffPair{Rho: refAxpy(x.Rho, y.Rho, s, shift), Pi: refAxpy(x.Pi, y.Pi, s, shift)}
}

// coeffsOf copies c into fresh Coeffs of the given capacity.
func coeffsOf(c CoeffPair, capacity int) Coeffs {
	d := NewCoeffs(capacity)
	d.Rho = d.rhoBuf[:copy(d.rhoBuf, c.Rho)]
	d.Pi = d.piBuf[:copy(d.piBuf, c.Pi)]
	return d
}

func sameBits(a, b CoeffPair) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.Rho, b.Rho) && eq(a.Pi, b.Pi)
}

// TestCoeffsInPlaceMatchesReference steps the in-place algebra over
// random λ/α histories of k = 1…8 steps and holds every result — each
// operation into a fresh destination and into one that aliases an
// operand, at shift 1 (r − λ A p) and shift 0 (r + a p, x + λ p) — and
// the Contract of the results bitwise equal to the allocating
// reference, which StepCG must match too.
func TestCoeffsInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 1; k <= 8; k++ {
		capacity := k + 2
		g := BaseGram{Mu: make([]float64, 2*k+2), Nu: make([]float64, 2*k+2), Omega: make([]float64, 2*k+2)}
		for i := range g.Mu {
			g.Mu[i], g.Nu[i], g.Omega[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		rRef, pRef, xRef := NewCoeffR(), NewCoeffP(), CoeffPair{}
		r, p, x, tmp := NewCoeffs(capacity), NewCoeffs(capacity), NewCoeffs(capacity), NewCoeffs(capacity)
		r.SetR()
		p.SetP()
		for j := 0; j < k; j++ {
			lambda, alpha := 4*rng.Float64()-2, 4*rng.Float64()-2

			// Each operation three ways: fresh destination, destination
			// aliasing the first operand, destination aliasing the second.
			wantR := refPair(rRef, pRef, -lambda, 1)
			wantX := refPair(xRef, pRef, lambda, 0)
			ops := []struct {
				name  string
				x, y  CoeffPair
				want  CoeffPair
				apply func(dst *Coeffs, x, y CoeffPair)
			}{
				{"StepR", rRef, pRef, wantR, func(d *Coeffs, x, y CoeffPair) { d.StepR(x, y, lambda) }},
				{"StepP", wantR, pRef, refPair(wantR, pRef, alpha, 0), func(d *Coeffs, x, y CoeffPair) { d.StepP(x, y, alpha) }},
			}
			for _, op := range ops {
				fresh := NewCoeffs(capacity)
				op.apply(&fresh, op.x, op.y)
				ax := coeffsOf(op.x, capacity)
				op.apply(&ax, ax.CoeffPair, op.y)
				ay := coeffsOf(op.y, capacity)
				op.apply(&ay, op.x, ay.CoeffPair)
				for _, got := range []struct {
					how string
					c   CoeffPair
				}{{"fresh", fresh.CoeffPair}, {"dst=x", ax.CoeffPair}, {"dst=y", ay.CoeffPair}} {
					if !sameBits(got.c, op.want) {
						t.Fatalf("k=%d step %d: %s into %s = %+v, reference %+v", k, j, op.name, got.how, got.c, op.want)
					}
				}
			}
			ax := coeffsOf(xRef, capacity)
			ax.Axpy(lambda, pRef)
			if !sameBits(ax.CoeffPair, wantX) {
				t.Fatalf("k=%d step %d: Axpy = %+v, reference %+v", k, j, ax.CoeffPair, wantX)
			}

			// The kernels' trajectory: r stepped in place, p in place,
			// x accumulated in place, against the reference and StepCG.
			x.Axpy(lambda, p.CoeffPair)
			tmp.StepR(r.CoeffPair, p.CoeffPair, lambda)
			r, tmp = tmp, r
			p.StepP(r.CoeffPair, p.CoeffPair, alpha)
			sr, sp := StepCG(rRef, pRef, lambda, alpha)
			xRef = refPair(xRef, pRef, lambda, 0)
			rRef = wantR
			pRef = refPair(rRef, pRef, alpha, 0)
			if !sameBits(r.CoeffPair, rRef) || !sameBits(p.CoeffPair, pRef) || !sameBits(x.CoeffPair, xRef) {
				t.Fatalf("k=%d step %d: in-place trajectory left the reference", k, j)
			}
			if !sameBits(sr, rRef) || !sameBits(sp, pRef) {
				t.Fatalf("k=%d step %d: StepCG left the reference", k, j)
			}
			for shift := 0; shift <= 1; shift++ {
				got, want := g.Contract(r.CoeffPair, p.CoeffPair, shift), g.Contract(rRef, pRef, shift)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("k=%d step %d shift %d: Contract %v, reference %v", k, j, shift, got, want)
				}
			}
		}
	}
}

// TestCoeffPairRepresentsIterates: apply StepCG to coefficients with the
// true CG scalars, reconstruct r(n)/p(n) from base Krylov powers, and
// compare to the vector iterates — claim C3's representation.
func TestCoeffPairRepresentsIterates(t *testing.T) {
	a := sparse.Poisson1D(14)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 11)

	// Run standard CG manually, capturing scalars and iterates.
	r := vec.Clone(b)
	p := vec.Clone(r)
	ap := vec.New(n)
	rr := vec.Dot(r, r)
	k := 4
	rPows := sparse.PowerApply(a, r, k)
	pPows := rPows // p(0) = r(0)

	cr := NewCoeffR()
	cp := NewCoeffP()
	for it := 0; it < k; it++ {
		a.MulVec(ap, p)
		lambda := rr / vec.Dot(p, ap)
		vec.Axpy(-lambda, ap, r)
		rrNew := vec.Dot(r, r)
		alpha := rrNew / rr
		vec.Xpay(r, alpha, p)
		rr = rrNew
		cr, cp = StepCG(cr, cp, lambda, alpha)

		// Reconstruct from coefficients.
		recR := vec.New(n)
		for i, c := range cr.Rho {
			vec.Axpy(c, rPows[i], recR)
		}
		for i, c := range cr.Pi {
			vec.Axpy(c, pPows[i], recR)
		}
		if !vec.EqualTol(recR, r, 1e-8*(1+normInf(r))) {
			t.Fatalf("iteration %d: coefficient reconstruction of r diverges", it+1)
		}
		recP := vec.New(n)
		for i, c := range cp.Rho {
			vec.Axpy(c, rPows[i], recP)
		}
		for i, c := range cp.Pi {
			vec.Axpy(c, pPows[i], recP)
		}
		if !vec.EqualTol(recP, p, 1e-8*(1+normInf(p))) {
			t.Fatalf("iteration %d: coefficient reconstruction of p diverges", it+1)
		}
	}
}

// normInf returns the largest absolute component of x.
func normInf(x vec.Vector) float64 {
	var m float64
	for _, xi := range x {
		m = math.Max(m, math.Abs(xi))
	}
	return m
}

// TestStarEquation verifies equation (*) end to end: the contraction of
// the k-step coefficients against the base Gram sequences equals the
// directly computed (r(n), r(n)) and (p(n), A p(n)).
func TestStarEquation(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		a := sparse.Poisson2D(4) // n=16
		n := a.Dim()
		b := vec.New(n)
		vec.Random(b, uint64(20+k))

		r := vec.Clone(b)
		p := vec.Clone(r)
		ap := vec.New(n)
		rr := vec.Dot(r, r)

		// Base Gram sequences at iteration 0 (p = r).
		pows := sparse.PowerApply(a, r, 2*k+1)
		g := BaseGram{
			Mu:    make([]float64, 2*k+2),
			Nu:    make([]float64, 2*k+2),
			Omega: make([]float64, 2*k+2),
		}
		for i := 0; i <= 2*k+1; i++ {
			d := vec.Dot(r, pows[i])
			g.Mu[i], g.Nu[i], g.Omega[i] = d, d, d
		}

		cr := NewCoeffR()
		cp := NewCoeffP()
		var lambdas, alphas []float64
		for it := 0; it < k; it++ {
			a.MulVec(ap, p)
			lambda := rr / vec.Dot(p, ap)
			vec.Axpy(-lambda, ap, r)
			rrNew := vec.Dot(r, r)
			alpha := rrNew / rr
			vec.Xpay(r, alpha, p)
			rr = rrNew
			lambdas = append(lambdas, lambda)
			alphas = append(alphas, alpha)
			cr, cp = StepCG(cr, cp, lambda, alpha)
		}

		// (r(k), r(k)) via contraction (equation *).
		gotRR := g.Contract(cr, cr, 0)
		wantRR := vec.Dot(r, r)
		if relErrT(gotRR, wantRR) > 1e-8 {
			t.Fatalf("k=%d: (*) gives (r,r)=%g, direct %g", k, gotRR, wantRR)
		}
		// (p(k), A p(k)) via contraction with shift 1.
		gotPAP := g.Contract(cp, cp, 1)
		a.MulVec(ap, p)
		wantPAP := vec.Dot(p, ap)
		if relErrT(gotPAP, wantPAP) > 1e-8 {
			t.Fatalf("k=%d: (*) gives (p,Ap)=%g, direct %g", k, gotPAP, wantPAP)
		}

		// And the explicit coefficient arrays of (*).
		aC, bC, cC := StarCoefficients(lambdas, alphas)
		var viaStar float64
		for i := 0; i <= 2*k; i++ {
			viaStar += aC[i]*g.Mu[i] + bC[i]*g.Nu[i] + cC[i]*g.Omega[i]
		}
		if relErrT(viaStar, wantRR) > 1e-8 {
			t.Fatalf("k=%d: StarCoefficients give %g, direct %g", k, viaStar, wantRR)
		}
	}
}

// TestStarCoefficientsDegreeInParams verifies the paper's §5 structural
// claim: the (*) coefficients are polynomials at most quadratic in each
// parameter separately. We check quadratic dependence numerically: for
// fixed other parameters, f(t) = coefficient as function of one lambda
// must satisfy the exactness of quadratic interpolation.
func TestStarCoefficientsDegreeInParams(t *testing.T) {
	k := 3
	baseL := []float64{0.4, 0.7, 0.3}
	baseA := []float64{0.5, 0.2, 0.6}
	for varyIdx := 0; varyIdx < k; varyIdx++ {
		coefAt := func(tv float64) []float64 {
			ls := append([]float64{}, baseL...)
			ls[varyIdx] = tv
			aC, bC, cC := StarCoefficients(ls, baseA)
			out := append(append(append([]float64{}, aC...), bC...), cC...)
			return out
		}
		// Sample at four points; quadratic in the parameter means the
		// third finite difference vanishes.
		f0 := coefAt(1.0)
		f1 := coefAt(2.0)
		f2 := coefAt(3.0)
		f3 := coefAt(4.0)
		for i := range f0 {
			third := f3[i] - 3*f2[i] + 3*f1[i] - f0[i]
			scale := math.Abs(f0[i]) + math.Abs(f1[i]) + math.Abs(f2[i]) + math.Abs(f3[i]) + 1
			if math.Abs(third)/scale > 1e-9 {
				t.Fatalf("coefficient %d is not quadratic in lambda_%d (third difference %g)",
					i, varyIdx, third)
			}
		}
	}
}

func TestStarCoefficientsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StarCoefficients([]float64{1}, []float64{1, 2})
}

// --- Solver tests ---

func TestSolveMatchesCGIterates(t *testing.T) {
	// In exact arithmetic VRCG generates the same iterates as CG; in
	// floating point they track each other to high accuracy for
	// well-conditioned problems.
	a := sparse.Poisson2D(6)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 31)
	cg, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, engine.Config{Tol: 1e-10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2, 4} {
		vr, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-10, RecordHistory: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !vr.Converged {
			t.Fatalf("k=%d: did not converge", k)
		}
		if !vec.EqualTol(vr.X, cg.X, 1e-6) {
			t.Fatalf("k=%d: solution differs from CG", k)
		}
		// Residual histories should track closely while the residual is
		// still well above the drift floor.
		m := len(cg.History)
		if len(vr.History) < m {
			m = len(vr.History)
		}
		for i := 0; i < m; i++ {
			if cg.History[i] < 1e-5*cg.History[0] {
				break
			}
			if relErrT(vr.History[i], cg.History[i]) > 1e-3 {
				t.Fatalf("k=%d iter %d: residual %g vs CG %g", k, i, vr.History[i], cg.History[i])
			}
		}
	}
}

func TestSolveConvergesVariousProblems(t *testing.T) {
	problems := []struct {
		name string
		a    sparse.Matrix
		seed uint64
	}{
		{"poisson1d", sparse.Poisson1D(64), 1},
		{"poisson2d", sparse.Poisson2D(8), 2},
		{"poisson3d", sparse.Poisson3D(4), 3},
		{"randomspd", sparse.RandomSPD(80, 6, 4), 4},
		{"ring", sparse.RingLaplacian(50, 0.5), 5},
	}
	for _, pr := range problems {
		n := pr.a.Dim()
		b := vec.New(n)
		vec.Random(b, pr.seed)
		res, err := engine.SolveOnce(NewKernel(), pr.a, b, engine.Config{K: 3, Tol: 1e-9})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence in %d iterations", pr.name, res.Iterations)
		}
		if res.TrueResidualNorm > 1e-6*vec.Norm2(b) {
			t.Fatalf("%s: true residual %g", pr.name, res.TrueResidualNorm)
		}
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(8)
	res, err := engine.SolveOnce(NewKernel(), a, vec.New(8), engine.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: converged=%v iters=%d", res.Converged, res.Iterations)
	}
}

func TestSolveRejectsBadArguments(t *testing.T) {
	a := sparse.Poisson1D(5)
	if _, err := engine.SolveOnce(NewKernel(), a, vec.New(6), engine.Config{K: 1}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := engine.SolveOnce(NewKernel(), a, vec.New(5), engine.Config{K: -1}); err == nil {
		t.Fatal("expected K error")
	}
	if _, err := engine.SolveOnce(NewKernel(), a, vec.New(5), engine.Config{K: 1, X0: vec.New(3)}); err == nil {
		t.Fatal("expected x0 dimension error")
	}
}

func TestSolveIndefiniteDetected(t *testing.T) {
	a := sparse.DiagonalMatrix(vec.NewFrom([]float64{1, -2, 1}))
	b := vec.NewFrom([]float64{1, 1, 1})
	if _, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: 1}); err == nil {
		t.Fatal("expected indefinite error")
	}
}

func TestSolveOneMatvecPerIteration(t *testing.T) {
	// Claim C7: one matvec per iteration beyond startup and the final
	// residual check. Startup = k+1 (families) — with no X0, r0 is b and
	// takes no product; exit = 1.
	a := sparse.Poisson2D(6)
	b := vec.New(a.Dim())
	vec.Random(b, 17)
	k := 3
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// 1/iteration + startup (k+1 family powers) + exit check + 2k+1 per
	// family refresh (stabilization).
	want := res.Iterations + (k + 1) + 1 + res.Refreshes*(2*k+1)
	if res.Stats.MatVecs != want {
		t.Fatalf("matvecs = %d, want %d (1/iteration + startup + exit + refreshes)", res.Stats.MatVecs, want)
	}
	// The paper-pure profile: window-only re-anchoring keeps it at
	// exactly one matvec per iteration.
	pure, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-8, WindowOnlyReanchor: true})
	if err != nil {
		t.Fatal(err)
	}
	pureWant := pure.Iterations + (k + 1) + 1 + pure.Refreshes*(2*k+1)
	if pure.Stats.MatVecs != pureWant {
		t.Fatalf("window-only matvecs = %d, want %d", pure.Stats.MatVecs, pureWant)
	}
}

func TestSolveDirectDotsPerIterationBounded(t *testing.T) {
	// Claim C5/C7: O(1) direct inner products per iteration. With the
	// published recurrences three per iteration are required, plus
	// startup, fallbacks, and periodic re-anchoring (6k+6 each).
	a := sparse.Poisson2D(6)
	b := vec.New(a.Dim())
	vec.Random(b, 18)
	k := 2
	interval := 8
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-8, ReanchorEvery: interval})
	if err != nil {
		t.Fatal(err)
	}
	windowDots := (2*k + 1) + (2*k + 2) + (2*k + 3)
	want := 3*res.Iterations + windowDots + res.FallbackDots + res.Reanchors*windowDots
	if res.Stats.InnerProducts != want {
		t.Fatalf("inner products = %d, want %d (3/iter + startup + fallbacks + reanchors)",
			res.Stats.InnerProducts, want)
	}
	// Amortized bound: still O(1) per iteration.
	perIter := float64(res.Stats.InnerProducts-windowDots) / float64(res.Iterations)
	if perIter > 3+float64(windowDots)/float64(interval)+2 {
		t.Fatalf("amortized direct dots per iteration %g too high", perIter)
	}
}

func TestSolveDriftSmallWithValidation(t *testing.T) {
	a := sparse.Poisson2D(7)
	b := vec.New(a.Dim())
	vec.Random(b, 19)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: 2, Tol: 1e-8, ValidateEvery: 1, ReanchorEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift.Checks == 0 {
		t.Fatal("no drift checks recorded")
	}
	// pap does not collapse the way rr does; with tight re-anchoring its
	// recurrence drift stays small.
	if res.Drift.MaxRelPAP > 1e-3 {
		t.Fatalf("recurrence (p,Ap) drift too large: %g", res.Drift.MaxRelPAP)
	}
	if res.ValidationDots != 2*res.Drift.Checks {
		t.Fatalf("validation dots %d for %d checks", res.ValidationDots, res.Drift.Checks)
	}
}

func TestSolveNoReanchorDriftsMoreThanAnchored(t *testing.T) {
	// The historically important comparison: the paper's pure
	// recurrence algorithm (no re-anchoring) drifts, and stabilization
	// by periodic direct recomputation bounds the drift — the story
	// successor papers formalized.
	a := sparse.Poisson1D(64)
	b := vec.New(64)
	vec.Random(b, 23)
	opts := engine.Config{K: 4, Tol: 1e-9, MaxIter: 800, ValidateEvery: 1}

	loose := opts
	loose.ReanchorEvery = -1
	looseRes, looseErr := engine.SolveOnce(NewKernel(), a, b, loose)

	anchored := opts
	anchored.ReanchorEvery = 8
	anchoredRes, err := engine.SolveOnce(NewKernel(), a, b, anchored)
	if err != nil {
		t.Fatal(err)
	}
	if !anchoredRes.Converged {
		t.Fatal("anchored solve did not converge")
	}
	if anchoredRes.Reanchors == 0 {
		t.Fatal("no reanchors recorded")
	}
	// The loose run either errors out, fails to converge, or shows at
	// least as much scalar drift as the anchored run.
	if looseErr == nil && looseRes.Converged &&
		looseRes.Drift.MaxRelRR < anchoredRes.Drift.MaxRelRR &&
		looseRes.Drift.MaxRelPAP < anchoredRes.Drift.MaxRelPAP {
		t.Fatalf("un-anchored run reported less drift (rr %g vs %g, pap %g vs %g)",
			looseRes.Drift.MaxRelRR, anchoredRes.Drift.MaxRelRR,
			looseRes.Drift.MaxRelPAP, anchoredRes.Drift.MaxRelPAP)
	}
}

func TestSolveCallbackEarlyStop(t *testing.T) {
	a := sparse.Poisson2D(8)
	b := vec.New(a.Dim())
	vec.Random(b, 29)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{
		K: 2, Tol: 1e-14,
		Callback: func(it int, _ float64) bool { return it < 4 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 {
		t.Fatalf("early stop at 4, got %d", res.Iterations)
	}
}

func TestSolveWarmStart(t *testing.T) {
	a := sparse.Poisson2D(5)
	n := a.Dim()
	xTrue := vec.New(n)
	vec.Random(xTrue, 33)
	b := vec.New(n)
	a.MulVec(b, xTrue)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: 2, X0: xTrue, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("warm start took %d iterations", res.Iterations)
	}
}

// Property: VRCG solves random SPD systems for random small k.
func TestPropSolveRandomSPD(t *testing.T) {
	f := func(seed uint64, szRaw, kRaw uint8) bool {
		n := int(szRaw)%30 + 8
		k := int(kRaw) % 4
		a := sparse.RandomSPD(n, 4, seed)
		x := vec.New(n)
		vec.Random(x, seed+1)
		b := vec.New(n)
		a.MulVec(b, x)
		res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-9, MaxIter: 30 * n})
		if err != nil || !res.Converged {
			return false
		}
		return res.TrueResidualNorm <= 1e-6*vec.Norm2(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the recurrence scalars match direct inner products on
// well-conditioned random problems when stabilized by frequent
// re-anchoring (claim C3/C5 exactness up to bounded floating-point
// drift).
func TestPropRecurrenceScalarExactness(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%5 + 1
		n := 40
		a := sparse.RandomSPD(n, 4, seed)
		b := vec.New(n)
		vec.Random(b, seed+2)
		res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-6, MaxIter: 200, ValidateEvery: 1, ReanchorEvery: 4})
		if err != nil {
			return false
		}
		return res.Drift.MaxRelPAP < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowVsContractionEngines cross-checks the two independent
// realizations of the paper's algebra: the sliding-window scalar
// recurrences (§5, package primary engine) and the coefficient-
// polynomial contraction against a fixed base Gram (§4, equation *).
// Both driven by the same scalar history must produce identical
// (r,r) and (p,Ap) sequences up to roundoff.
func TestWindowVsContractionEngines(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		a := sparse.Poisson2D(4)
		n := a.Dim()
		r0 := vec.New(n)
		vec.Random(r0, uint64(80+k))

		// Engine 1: families + window.
		fam := NewFamilies(a, r0, k)
		win := NewWindow(k)
		ws := engine.NewWorkspace(n, nil)
		win.InitDirect(ws, fam)

		// Engine 2: base Gram at iteration 0 + coefficient pairs.
		pows := sparse.PowerApply(a, r0, 2*k+3)
		width := 2*k + 4
		g := BaseGram{
			Mu:    make([]float64, width),
			Nu:    make([]float64, width),
			Omega: make([]float64, width),
		}
		for i := 0; i < width; i++ {
			d := vec.Dot(r0, pows[i])
			g.Mu[i], g.Nu[i], g.Omega[i] = d, d, d
		}
		cr := NewCoeffR()
		cp := NewCoeffP()

		for step := 0; step < k; step++ { // degrees stay within the Gram width
			rrWin, papWin := win.RR(), win.PAP()
			rrCon := g.Contract(cr, cr, 0)
			papCon := g.Contract(cp, cp, 1)
			if relErrT(rrWin, rrCon) > 1e-9 {
				t.Fatalf("k=%d step %d: window rr %g vs contraction %g", k, step, rrWin, rrCon)
			}
			if relErrT(papWin, papCon) > 1e-9 {
				t.Fatalf("k=%d step %d: window pap %g vs contraction %g", k, step, papWin, papCon)
			}

			lambda := rrWin / papWin
			fam.StepR(lambda)
			rrNew := win.PeekRR(lambda)
			alpha := rrNew / rrWin
			fam.StepP(a, alpha)
			topN, topW1, topW2 := fam.DirectTops(ws)
			win.Step(lambda, alpha, topN, topW1, topW2)
			cr, cp = StepCG(cr, cp, lambda, alpha)
		}
	}
}

package solve_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// luSolve solves the dense square system A x = b by Gaussian elimination
// with partial pivoting — the direct reference for the general-operator
// methods.
func luSolve(t *testing.T, a *sparse.Dense, b []float64) []float64 {
	t.Helper()
	n := a.Dim()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			m[i][j] = a.At(i, j)
		}
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		p := col
		for i := col + 1; i < n; i++ {
			if math.Abs(m[i][col]) > math.Abs(m[p][col]) {
				p = i
			}
		}
		if m[p][col] == 0 {
			t.Fatalf("singular reference system at column %d", col)
		}
		m[col], m[p] = m[p], m[col]
		for i := col + 1; i < n; i++ {
			f := m[i][col] / m[col][col]
			for j := col; j <= n; j++ {
				m[i][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// nonsymmetricCSR builds a random diagonally dominant matrix with no
// symmetry, in CSR so the session fast paths and transpose products are
// the production ones.
func nonsymmetricCSR(rng *rand.Rand, n int) *sparse.CSR {
	coo := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		var off float64
		for _, d := range []int{-3, -1, 1, 2} {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			v := rng.NormFloat64()
			coo.Add(i, j, v)
			off += math.Abs(v)
		}
		coo.Add(i, i, off+1+rng.Float64())
	}
	return coo.ToCSR()
}

func generalRelErr(x, ref []float64) float64 {
	var num, den float64
	for i := range x {
		num += (x[i] - ref[i]) * (x[i] - ref[i])
		den += ref[i] * ref[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestGeneralMethodsRegistered: the acceptance list — all four
// general-operator methods are in the registry with the right caps.
func TestGeneralMethodsRegistered(t *testing.T) {
	want := map[string]solve.Caps{
		"bicgstab": {Nonsymmetric: true},
		"gmres":    {Nonsymmetric: true},
		"cgnr":     {Nonsymmetric: true, Rectangular: true},
		"lsqr":     {Nonsymmetric: true, Rectangular: true},
	}
	have := map[string]bool{}
	for _, name := range solve.Methods() {
		have[name] = true
	}
	for name, caps := range want {
		if !have[name] {
			t.Errorf("method %q missing from solve.Methods()", name)
			continue
		}
		if got := solve.MethodCaps(name); got != caps {
			t.Errorf("MethodCaps(%q) = %+v, want %+v", name, got, caps)
		}
	}
	if got := solve.MethodCaps("cg"); got != (solve.Caps{Sharded: true}) {
		t.Errorf("MethodCaps(cg) = %+v, want no operator-shape caps (Sharded only)", got)
	}
}

// TestNonsymmetricMethodsMatchLU: bicgstab and gmres agree with a dense
// LU solution to 1e-10 relative on random nonsymmetric systems.
func TestNonsymmetricMethodsMatchLU(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{16, 50} {
		a := nonsymmetricCSR(rng, n)
		if a.IsSymmetric(1e-12) {
			t.Fatal("test matrix unexpectedly symmetric")
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := luSolve(t, a.ToDense(), b)
		for _, method := range []string{"bicgstab", "gmres"} {
			res, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-12))
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, method, err)
			}
			if e := generalRelErr(res.X, ref); e > 1e-10 {
				t.Errorf("n=%d %s: relative error %g vs LU, want <= 1e-10", n, method, e)
			}
		}
	}
}

// TestGMRESWithRestart: explicit restart lengths all converge to the
// same answer, and an invalid one is rejected through ErrBadOption via
// Params.Validate.
func TestGMRESWithRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 40
	a := nonsymmetricCSR(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref := luSolve(t, a.ToDense(), b)
	for _, m := range []int{2, 10, 40} {
		res, err := solve.MustNew("gmres").Solve(a, b,
			solve.WithTol(1e-12), solve.WithRestart(m), solve.WithMaxIter(100000))
		if err != nil {
			t.Fatalf("gmres(%d): %v", m, err)
		}
		if e := generalRelErr(res.X, ref); e > 1e-10 {
			t.Errorf("gmres(%d): relative error %g vs LU", m, e)
		}
	}
	bad := -1
	p := &solve.Params{Restart: &bad}
	if err := p.Validate(); !errors.Is(err, solve.ErrBadOption) {
		t.Errorf("Params{Restart:-1}.Validate() = %v, want ErrBadOption", err)
	}
}

// TestLeastSquaresMethods: cgnr and lsqr solve a rectangular
// least-squares problem to the normal-equations reference, and agree
// with each other on a consistent system.
func TestLeastSquaresMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rows, cols := 60, 9
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a := sparse.RectFromDense(rows, cols, data)

	ata := sparse.NewDense(cols)
	for i := 0; i < cols; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for r := 0; r < rows; r++ {
				s += data[r*cols+i] * data[r*cols+j]
			}
			ata.Set(i, j, s)
		}
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	atb := make([]float64, cols)
	a.MulVecT(atb, b)
	ref := luSolve(t, ata, atb)

	for _, method := range []string{"cgnr", "lsqr"} {
		res, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-12))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(res.X) != cols {
			t.Fatalf("%s: solution length %d, want %d", method, len(res.X), cols)
		}
		if e := generalRelErr(res.X, ref); e > 1e-10 {
			t.Errorf("%s: relative error %g vs normal equations, want <= 1e-10", method, e)
		}
	}

	// Consistent system: both must recover the constructed solution.
	xTrue := make([]float64, cols)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	a.MulVec(b, xTrue)
	var sols [][]float64
	for _, method := range []string{"cgnr", "lsqr"} {
		res, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-13))
		if err != nil {
			t.Fatalf("%s consistent: %v", method, err)
		}
		x := append([]float64(nil), res.X...)
		if e := generalRelErr(x, xTrue); e > 1e-10 {
			t.Errorf("%s: relative error %g vs exact solution", method, e)
		}
		sols = append(sols, x)
	}
	if e := generalRelErr(sols[0], sols[1]); e > 1e-10 {
		t.Errorf("cgnr and lsqr disagree by %g on a consistent system", e)
	}
}

// TestGeneralBreakdownSentinels: singular (zero) operators trip
// ErrBreakdown through the public registry for all four methods.
func TestGeneralBreakdownSentinels(t *testing.T) {
	n := 8
	zero := sparse.NewCSR(n, make([]int, n+1), nil, nil)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for _, method := range []string{"bicgstab", "gmres", "cgnr", "lsqr"} {
		_, err := solve.MustNew(method).Solve(zero, b)
		if !errors.Is(err, solve.ErrBreakdown) {
			t.Errorf("%s on zero operator: err = %v, want ErrBreakdown", method, err)
		}
	}
}

// TestLeastSquaresRejectNoTranspose: operators without MulVecT fail
// with ErrUnsupportedOperator instead of a panic or silent nonsense.
func TestLeastSquaresRejectNoTranspose(t *testing.T) {
	a := opaqueOperator{n: 5}
	b := make([]float64, 5)
	for i := range b {
		b[i] = 1
	}
	for _, method := range []string{"cgnr", "lsqr"} {
		_, err := solve.MustNew(method).Solve(a, b)
		if !errors.Is(err, solve.ErrUnsupportedOperator) {
			t.Errorf("%s without transpose products: err = %v, want ErrUnsupportedOperator", method, err)
		}
	}
}

type opaqueOperator struct{ n int }

func (o opaqueOperator) Dim() int { return o.n }
func (o opaqueOperator) MulVec(dst, x []float64) {
	for i := range dst {
		dst[i] = 3 * x[i]
	}
}

// TestGeneralSessionZeroAllocSteadyState: the zero-alloc warm Session
// fast path extends to all four general-operator methods, square and
// rectangular.
func TestGeneralSessionZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 32
	square := nonsymmetricCSR(rng, n)
	bsq := make([]float64, n)
	for i := range bsq {
		bsq[i] = rng.NormFloat64()
	}
	rows, cols := 48, 6
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	rect := sparse.RectFromDense(rows, cols, data)
	brect := make([]float64, rows)
	for i := range brect {
		brect[i] = rng.NormFloat64()
	}

	cases := []struct {
		method string
		op     solve.Operator
		b      []float64
	}{
		{"bicgstab", square, bsq},
		{"gmres", square, bsq},
		{"cgnr", rect, brect},
		{"lsqr", rect, brect},
	}
	for _, tc := range cases {
		sess, err := solve.NewSession(tc.method, tc.op, solve.WithTol(1e-10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(tc.b); err != nil { // warm the workspace
			t.Fatalf("%s: %v", tc.method, err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := sess.Solve(tc.b); err != nil {
				t.Fatalf("%s: %v", tc.method, err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: warm Session.Solve allocates %v per call, want 0", tc.method, avg)
		}
	}
}

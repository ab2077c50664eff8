package gkrylov

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vrcg/internal/engine"
	"vrcg/sparse"
)

// luSolve solves the dense square system A x = b by Gaussian elimination
// with partial pivoting — the reference the Krylov answers are checked
// against.
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

// randomNonsymmetric builds a dense diagonally dominant nonsymmetric
// matrix (well conditioned but with no symmetry whatsoever).
func randomNonsymmetric(rng *rand.Rand, n int) *sparse.Dense {
	d := sparse.NewDense(n)
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			d.Set(i, j, v)
			off += math.Abs(v)
		}
		d.Set(i, i, off+1+rng.Float64())
	}
	return d
}

func relErr(x, ref []float64) float64 {
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

func runKernel(t *testing.T, k engine.Kernel, a sparse.Matrix, b []float64) *engine.Result {
	t.Helper()
	_, cols := sparse.Dims(a)
	res := new(engine.Result)
	err := engine.Solve(k, engine.NewWorkspace(cols, nil), a, b, engine.Config{Tol: 1e-12}, res)
	if err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	if !res.Converged {
		t.Fatalf("%s: did not converge (resnorm %g after %d iterations)", k.Name(), res.ResidualNorm, res.Iterations)
	}
	return res
}

func TestSquareKernelsMatchLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 24, 61} {
		a := randomNonsymmetric(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := luSolve(t, a, b)
		for _, k := range []engine.Kernel{NewBiCGStabKernel(), NewGMRESKernel(), NewCGNRKernel(), NewLSQRKernel()} {
			res := runKernel(t, k, a, b)
			if e := relErr(res.X, ref); e > 1e-8 {
				t.Errorf("n=%d %s: relative error %g vs LU", n, k.Name(), e)
			}
		}
	}
}

func TestGMRESRestartLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	a := randomNonsymmetric(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref := luSolve(t, a, b)
	for _, m := range []int{1, 5, 40} {
		res := new(engine.Result)
		err := engine.Solve(NewGMRESKernel(), engine.NewWorkspace(n, nil), a, b,
			engine.Config{Tol: 1e-12, Restart: m, MaxIter: 100000}, res)
		if err != nil || !res.Converged {
			t.Fatalf("gmres(%d): err=%v converged=%v", m, err, res.Converged)
		}
		if e := relErr(res.X, ref); e > 1e-8 {
			t.Errorf("gmres(%d): relative error %g vs LU", m, e)
		}
	}
}

func TestLeastSquaresRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows, cols := 50, 8
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a := sparse.RectFromDense(rows, cols, data)

	// Reference: solve the normal equations AᵀA x = Aᵀb densely.
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

	for _, k := range []engine.Kernel{NewCGNRKernel(), NewLSQRKernel()} {
		res := new(engine.Result)
		err := engine.Solve(k, engine.NewWorkspace(cols, nil), a, b, engine.Config{Tol: 1e-12}, res)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge on inconsistent system (resnorm %g)", k.Name(), res.ResidualNorm)
		}
		if e := relErr(res.X, ref); e > 1e-8 {
			t.Errorf("%s: relative error %g vs normal-equations reference", k.Name(), e)
		}
	}
}

func TestCGNRAndLSQRAgreeOnConsistentSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rows, cols := 40, 12
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a := sparse.RectFromDense(rows, cols, data)
	xTrue := make([]float64, cols)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, rows)
	a.MulVec(b, xTrue)

	var got [][]float64
	for _, k := range []engine.Kernel{NewCGNRKernel(), NewLSQRKernel()} {
		res := runKernel(t, k, a, b)
		if e := relErr(res.X, xTrue); e > 1e-8 {
			t.Errorf("%s: relative error %g vs constructed solution", k.Name(), e)
		}
		x := make([]float64, cols)
		copy(x, res.X)
		got = append(got, x)
	}
	if e := relErr(got[0], got[1]); e > 1e-8 {
		t.Errorf("cgnr and lsqr disagree by %g on a consistent system", e)
	}
}

func TestBreakdownOnZeroOperator(t *testing.T) {
	n := 6
	zero := sparse.NewCSR(n, make([]int, n+1), nil, nil)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for _, k := range []engine.Kernel{NewBiCGStabKernel(), NewGMRESKernel(), NewCGNRKernel(), NewLSQRKernel()} {
		res := new(engine.Result)
		err := engine.Solve(k, engine.NewWorkspace(n, nil), zero, b, engine.Config{Tol: 1e-10}, res)
		if !errors.Is(err, engine.ErrBreakdown) {
			t.Errorf("%s on zero operator: err = %v, want ErrBreakdown", k.Name(), err)
		}
	}
}

func TestLeastSquaresRequireTransposeCapability(t *testing.T) {
	// A matrix-free operator without MulVecT must be rejected up front.
	a := noTranspose{n: 4}
	b := []float64{1, 2, 3, 4}
	for _, k := range []engine.Kernel{NewCGNRKernel(), NewLSQRKernel()} {
		res := new(engine.Result)
		err := engine.Solve(k, engine.NewWorkspace(4, nil), a, b, engine.Config{}, res)
		if !errors.Is(err, engine.ErrUnsupportedOperator) {
			t.Errorf("%s without transpose: err = %v, want ErrUnsupportedOperator", k.Name(), err)
		}
	}
}

type noTranspose struct{ n int }

func (m noTranspose) Dim() int { return m.n }
func (m noTranspose) MulVec(dst, x []float64) {
	for i := range dst {
		dst[i] = 2 * x[i]
	}
}

func TestWarmKernelSolveAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 32
	a := randomNonsymmetric(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, mk := range []func() engine.Kernel{NewBiCGStabKernel, NewGMRESKernel, NewCGNRKernel, NewLSQRKernel} {
		k := mk()
		ws := engine.NewWorkspace(n, nil)
		res := new(engine.Result)
		cfg := engine.Config{Tol: 1e-10}
		if err := engine.Solve(k, ws, a, b, cfg, res); err != nil {
			t.Fatalf("%s warm-up: %v", k.Name(), err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := engine.Solve(k, ws, a, b, cfg, res); err != nil {
				t.Fatalf("%s: %v", k.Name(), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm solve allocates %v objects/op, want 0", k.Name(), allocs)
		}
	}
}

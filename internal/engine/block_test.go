package engine_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/pipecg"
	"vrcg/sparse"
)

// party is one of two row blocks of a CSR operator, joined to the other
// by channels: the engine.RowBlock seam without sockets. Each goroutine
// runs the same kernel on its party, so both make the same sequence of
// calls and every send below meets its receive.
type party struct {
	a      *sparse.CSR
	r0, r1 int // owned rows
	// One message each way may be outstanding per kind (a posted sum
	// while the vectors of the overlapped product cross).
	vecOut, vecIn chan []float64
	sumOut, sumIn chan []float64
	posted        []float64
	full, prod    []float64
}

func (p *party) Dim() int   { return p.r1 - p.r0 }
func (p *party) Err() error { return nil }

func (p *party) MulVec(dst, x []float64) {
	p.vecOut <- append([]float64(nil), x...)
	peer := <-p.vecIn
	copy(p.full[p.r0:p.r1], x)
	if p.r0 == 0 {
		copy(p.full[p.r1:], peer)
	} else {
		copy(p.full[:p.r0], peer)
	}
	p.a.MulVec(p.prod, p.full)
	copy(dst, p.prod[p.r0:p.r1])
}

func (p *party) PostSums(vals []float64) {
	p.posted = append(p.posted[:0], vals...)
	p.sumOut <- append([]float64(nil), vals...)
}

func (p *party) CollectSums(dst []float64) {
	peer := <-p.sumIn
	for i := range dst {
		dst[i] = p.posted[i] + peer[i]
	}
}

func twoParties(a *sparse.CSR) [2]*party {
	n, half := a.Dim(), a.Dim()/2
	v01, v10 := make(chan []float64, 1), make(chan []float64, 1)
	s01, s10 := make(chan []float64, 1), make(chan []float64, 1)
	mk := func(r0, r1 int, vo, vi, so, si chan []float64) *party {
		return &party{a: a, r0: r0, r1: r1, vecOut: vo, vecIn: vi, sumOut: so, sumIn: si,
			full: make([]float64, n), prod: make([]float64, n)}
	}
	return [2]*party{mk(0, half, v01, v10, s01, s10), mk(half, n, v10, v01, s10, s01)}
}

func blockSystem() (*sparse.CSR, []float64) {
	a := sparse.Poisson2D(12)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return a, b
}

func serialSolve(t *testing.T, k engine.Kernel, a sparse.Matrix, b []float64, cfg engine.Config) (engine.Result, []float64) {
	t.Helper()
	var res engine.Result
	if err := engine.Solve(k, engine.NewWorkspace(a.Dim(), nil), a, b, cfg, &res); err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	return res, append([]float64(nil), res.X...)
}

var blockKernels = []struct {
	name string
	mk   func() engine.Kernel
	cfg  engine.Config
}{
	{"cg", krylov.NewCGKernel, engine.Config{Tol: 1e-10}},
	{"pipecg", pipecg.NewGVKernel, engine.Config{Tol: 1e-10, Blocking: true}},
}

// TestTwoPartyBlocksMatchSerial: the cg and pipecg kernels, unchanged,
// run as two row blocks whose sums are combined, reach the serial
// solution in the serial iteration count with the serial work per
// party.
func TestTwoPartyBlocksMatchSerial(t *testing.T) {
	a, b := blockSystem()
	for _, tc := range blockKernels {
		t.Run(tc.name, func(t *testing.T) {
			want, wantX := serialSolve(t, tc.mk(), a, b, tc.cfg)
			parties := twoParties(a)
			var res [2]engine.Result
			var errs [2]error
			var wg sync.WaitGroup
			for i, p := range parties {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = engine.Solve(tc.mk(), engine.NewWorkspace(p.Dim(), nil), p, b[p.r0:p.r1], tc.cfg, &res[i])
				}()
			}
			wg.Wait()
			for i, p := range parties {
				if errs[i] != nil {
					t.Fatalf("party %d: %v", i, errs[i])
				}
				if res[i].Iterations != want.Iterations || !res[i].Converged {
					t.Errorf("party %d: %d iterations (converged=%v), serial %d", i, res[i].Iterations, res[i].Converged, want.Iterations)
				}
				if res[i].Stats.MatVecs != want.Stats.MatVecs || res[i].Stats.InnerProducts != want.Stats.InnerProducts {
					t.Errorf("party %d: stats %v, serial %v", i, res[i].Stats, want.Stats)
				}
				if res[i].ResidualNorm != res[0].ResidualNorm || res[i].TrueResidualNorm != res[0].TrueResidualNorm {
					t.Errorf("parties disagree on the global residual: %v vs %v", res[i], res[0])
				}
				for j, v := range res[i].X {
					if d := math.Abs(v - wantX[p.r0+j]); d > 1e-12*(1+math.Abs(wantX[p.r0+j])) {
						t.Fatalf("party %d: x[%d] off serial by %g", i, p.r0+j, d)
					}
				}
			}
		})
	}
}

// lone is the whole operator posing as a row block: the sum over its
// one block is the partial sum. failAt > 0 makes the failAt-th collect
// and everything after it a transport failure.
type lone struct {
	sparse.Matrix
	collects, failAt int
	err              error
}

func (l *lone) Err() error { return l.err }

func (l *lone) MulVec(dst, x []float64) {
	if l.err == nil {
		l.Matrix.MulVec(dst, x)
	}
}

func (l *lone) PostSums([]float64) {}

func (l *lone) CollectSums([]float64) {
	if l.collects++; l.collects == l.failAt {
		l.err = errTransport
	}
}

var errTransport = errors.New("transport lost")

// TestBlockSumsAreThePlainSums: a row block's partial sums are computed
// exactly as the plain path computes its sums, so a one-block solve is
// the plain solve bit for bit — and the plain solve is the one the
// parent commit computed (residual bits recorded there).
func TestBlockSumsAreThePlainSums(t *testing.T) {
	a, b := blockSystem()
	parent := map[string]struct {
		iters int
		rn    uint64
	}{
		"cg":     {42, 0x3e2f6a4ca0e8100e},
		"pipecg": {42, 0x3e2f6a5427cae6c2},
	}
	for _, tc := range blockKernels {
		plain, plainX := serialSolve(t, tc.mk(), a, b, tc.cfg)
		if p := parent[tc.name]; plain.Iterations != p.iters || math.Float64bits(plain.ResidualNorm) != p.rn {
			t.Errorf("%s: plain solve (%d, %#x), parent commit (%d, %#x)", tc.name,
				plain.Iterations, math.Float64bits(plain.ResidualNorm), p.iters, p.rn)
		}
		block, blockX := serialSolve(t, tc.mk(), &lone{Matrix: a}, b, tc.cfg)
		if block.Iterations != plain.Iterations || block.ResidualNorm != plain.ResidualNorm {
			t.Errorf("%s: one-block solve (%d, %v), plain (%d, %v)", tc.name,
				block.Iterations, block.ResidualNorm, plain.Iterations, plain.ResidualNorm)
		}
		for i := range plainX {
			if math.Float64bits(blockX[i]) != math.Float64bits(plainX[i]) {
				t.Fatalf("%s: x[%d] = %x, plain %x", tc.name, i, blockX[i], plainX[i])
			}
		}
	}
}

// TestTransportFailureIsTheSolveError: when the block operator fails
// mid-step — inside pipecg's overlap window, inside a cg allreduce —
// the solve ends with the operator's own error, not with a breakdown
// made of the scalars the kernel was left with, nothing stays in
// flight, and the workspace solves again.
func TestTransportFailureIsTheSolveError(t *testing.T) {
	a, b := blockSystem()
	for _, tc := range blockKernels {
		ws := engine.NewWorkspace(a.Dim(), nil)
		var res engine.Result
		op := &lone{Matrix: a, failAt: 9}
		err := engine.Solve(tc.mk(), ws, op, b, tc.cfg, &res)
		if err != errTransport {
			t.Errorf("%s: error %v, want the operator's", tc.name, err)
		}
		if op.collects > op.failAt+3 {
			t.Errorf("%s: %d collects after the failure", tc.name, op.collects-op.failAt)
		}
		if err := engine.Solve(tc.mk(), ws, a, b, tc.cfg, &res); err != nil || !res.Converged {
			t.Errorf("%s: solve after the failure: converged=%v, %v", tc.name, res.Converged, err)
		}
	}
}

// recorder is the whole operator posing as a row block (see lone) that
// writes down what a solve asks of it, in order: "mul", "post<m>" for m
// sums posted, "collect", and "tick" from the solve's callback as each
// iteration ends.
type recorder struct {
	sparse.Matrix
	log []string
}

func (r *recorder) Err() error { return nil }

func (r *recorder) MulVec(dst, x []float64) {
	r.log = append(r.log, "mul")
	r.Matrix.MulVec(dst, x)
}

func (r *recorder) PostSums(vals []float64) {
	r.log = append(r.log, "post"+string(rune('0'+len(vals))))
}

func (r *recorder) CollectSums([]float64) { r.log = append(r.log, "collect") }

// TestIssuedSumsStraddleTheProduct: the sums pipecg and gropp take inside
// their fused update pass are posted before the product they are issued
// over and collected after it, every iteration — a fleet still hides the
// exchange behind the product — and nothing else crosses the seam in
// between: pipecg's iteration is (gamma, delta) around n = A w, gropp's is
// a blocking (p, s) and then (r, r) around w = A r.
func TestIssuedSumsStraddleTheProduct(t *testing.T) {
	a, b := blockSystem()
	for _, tc := range []struct {
		name string
		mk   func() engine.Kernel
		step []string
	}{
		{"pipecg", pipecg.NewGVKernel, []string{"post2", "mul", "collect", "tick"}},
		{"gropp", pipecg.NewGroppKernel, []string{"post1", "collect", "post1", "mul", "collect", "tick"}},
	} {
		op := &recorder{Matrix: a}
		cfg := engine.Config{Tol: 1e-10, Blocking: true, Callback: func(int, float64) bool {
			op.log = append(op.log, "tick")
			return true
		}}
		var res engine.Result
		if err := engine.Solve(tc.mk(), engine.NewWorkspace(a.Dim(), nil), op, b, cfg, &res); err != nil || !res.Converged {
			t.Fatalf("%s: converged=%v, %v", tc.name, res.Converged, err)
		}
		ticks := 0
		for end, ev := range op.log {
			if ev != "tick" {
				continue
			}
			ticks++
			if end+1 < len(tc.step) {
				t.Fatalf("%s: iteration %d ends after %v", tc.name, ticks, op.log[:end+1])
			}
			got := op.log[end+1-len(tc.step) : end+1]
			for i := range got {
				if got[i] != tc.step[i] {
					t.Fatalf("%s: iteration %d crossed the seam as %v, want %v", tc.name, ticks, got, tc.step)
				}
			}
			// Nothing of an earlier iteration trails into this one.
			if ticks > 1 && op.log[end-len(tc.step)] != "tick" {
				t.Fatalf("%s: iteration %d: %q before %v", tc.name, ticks, op.log[end-len(tc.step)], tc.step)
			}
		}
		if ticks != res.Iterations || ticks < 10 {
			t.Errorf("%s: %d iterations recorded, %d run", tc.name, ticks, res.Iterations)
		}
	}
}

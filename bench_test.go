// Kernel, operator and solve microbenchmarks; BENCH_engine.json's rows
// (`make bench`, BENCHPAT) come from here. The paper's experiment tables are not timed
// here: cmd/cgbench prints them, claims_test.go asserts the claims they
// show, and ARCHITECTURE.md "What the paper's schedules cost" describes
// the models behind them.
//
// Run:  go test -bench=. -benchmem
package vrcg_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/machine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// --- kernel microbenchmarks ---

func BenchmarkDotSerial(b *testing.B) {
	x := vec.New(1 << 16)
	y := vec.New(1 << 16)
	vec.Random(x, 1)
	vec.Random(y, 2)
	b.SetBytes(int64(16 * len(x)))
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += vec.Dot(x, y)
	}
	_ = s
}

func BenchmarkFusedCGUpdate(b *testing.B) {
	n := 1 << 16
	p := vec.New(n)
	ap := vec.New(n)
	x := vec.New(n)
	r := vec.New(n)
	vec.Random(p, 1)
	vec.Random(ap, 2)
	vec.Random(r, 3)
	b.SetBytes(int64(32 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.FusedCGUpdate(1e-6, p, ap, x, r)
	}
}

func BenchmarkMatVecCSRPoisson2D(b *testing.B) {
	a := sparse.Poisson2D(128)
	x := vec.New(a.Dim())
	y := vec.New(a.Dim())
	vec.Random(x, 4)
	b.SetBytes(spmvBytes(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

func BenchmarkAllreduceSimulated(b *testing.B) {
	for _, p := range []int{64, 1024} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := machine.New(machine.DefaultConfig(p))
				m.Allreduce(1)
			}
		})
	}
}

func BenchmarkWindowStep(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			w := core.NewWindow(k)
			for i := range w.M {
				w.M[i] = 1 / float64(i+1)
			}
			for i := range w.N {
				w.N[i] = 1 / float64(i+2)
			}
			for i := range w.W {
				w.W[i] = 1 / float64(i+3)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step(0.001, 0.5, 1e-6, 1e-6, 1e-6)
			}
		})
	}
}

func BenchmarkVRCGSolvePoisson(b *testing.B) {
	a := sparse.Poisson2D(48)
	rhs := vec.New(a.Dim())
	vec.Random(rhs, 21)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.SolveOnce(core.NewKernel(), a, rhs, engine.Config{K: k, Tol: 1e-8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- additional kernel microbenchmarks ---

func BenchmarkMINRESSolve(b *testing.B) {
	a := sparse.Poisson2D(32)
	rhs := vec.New(a.Dim())
	vec.Random(rhs, 41)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.SolveOnce(krylov.NewMINRESKernel(), a, rhs, engine.Config{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIC0FactorAndApply times the IC(0) set-up and one M^{-1}r on
// the judged operator, whose dependency graph is 127 levels deep, and on
// a chain of the same order — 4096 levels of one row, where the level
// schedule has nothing to find and must not cost anything either.
func BenchmarkIC0FactorAndApply(b *testing.B) {
	for _, op := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d-64", sparse.Poisson2D(64)},
		{"poisson1d-4096", sparse.Poisson1D(4096)},
	} {
		a := op.a
		b.Run("factor/"+op.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := precond.NewIC0(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		ic, err := precond.NewIC0(a)
		if err != nil {
			b.Fatal(err)
		}
		r := vec.New(a.Dim())
		vec.Random(r, 42)
		dst := vec.New(a.Dim())
		b.Run("apply/"+op.name, func(b *testing.B) {
			b.SetBytes(int64(8 * a.Dim()))
			for i := 0; i < b.N; i++ {
				ic.Apply(dst, r)
			}
		})
	}
}

func BenchmarkRCMOrder(b *testing.B) {
	a := sparse.Poisson2D(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.RCMOrder(a)
	}
}

// --- execution engine: serial vs pooled hot paths ---

// spmvBytes is what one product with op moves when nothing stays in
// cache: the format's own arrays (CSR 8 B value + 8 B int column per
// entry and n+1 row pointers; SELL 8 B value + 4 B column per padded
// entry; DIA 8 B per stored value — a symmetric band stores only the
// diagonals k >= 0, a repeating diagonal one run — no indices) plus x
// read and dst written once.
// Divided into ns/op it is the GB/s column ROADMAP item 1 asks of the
// SpMV rows.
func spmvBytes(op sparse.Matrix) int64 {
	n := int64(op.Dim())
	switch m := op.(type) {
	case *sparse.CSR:
		return 16*int64(m.NNZ()) + 8*(n+1) + 16*n
	case *sparse.SELL:
		return 12*int64(m.PaddedNNZ()) + 16*n
	case *sparse.DIA:
		return 8*int64(m.StoredValues()) + 16*n
	}
	panic(fmt.Sprintf("spmvBytes: unknown operator %T", op))
}

// fullBandDIA is a's band with every diagonal stored, as a symmetric
// band was before it folded: one subdiagonal cell moved by an ulp, which
// changes no timing.
func fullBandDIA(b *testing.B, a *sparse.CSR) *sparse.DIA {
	n := a.Dim()
	diags := map[int][]float64{}
	for i := 0; i < n; i++ {
		a.ScanRow(i, func(j int, v float64) {
			if diags[j-i] == nil {
				diags[j-i] = make([]float64, n)
			}
			diags[j-i][i] = v
		})
	}
	diags[-1][1] = math.Nextafter(diags[-1][1], 2)
	d := sparse.NewDIA(n, diags)
	if d.StoredDiagonals() != len(diags) {
		b.Fatalf("full band stores %d of %d diagonals", d.StoredDiagonals(), len(diags))
	}
	return d
}

// BenchmarkSpMV shows the format choice TuneMulVec makes and what it
// buys. The csr/sell/dia rows time each format's serial kernel (dia-full
// the same band with its subdiagonals stored, what a symmetric operator
// streamed before it folded and an unsymmetric one still does) and
// tuned-<format> the operator engine.Solve would dispatch on, over the
// three operators the judged benchmark runs (serve-*, lib-ladder,
// lib-stream) and one that is not banded, where the choice is SELL and
// there is no dia row. The serial/sell/pooled rows at n = 102400 and
// 409600 keep their names from earlier BENCH_engine.json files; pooled
// is the tuned operator through the default pool.
func BenchmarkSpMV(b *testing.B) {
	run := func(name string, op sparse.Matrix, pool *vec.Pool) {
		n := op.Dim()
		x, y := vec.New(n), vec.New(n)
		vec.Random(x, 4)
		b.Run(name, func(b *testing.B) {
			sparse.PooledMulVec(op, pool, y, x) // warm partition + workers
			b.SetBytes(spmvBytes(op))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.PooledMulVec(op, pool, y, x)
			}
		})
	}
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d-32", sparse.Poisson2D(32)},
		{"poisson2d-64", sparse.Poisson2D(64)},
		{"poisson3d-64", sparse.Poisson3D(64)},
		{"randomspd-16384", sparse.RandomSPD(16384, 6, 5)},
	} {
		run("csr/"+c.name, c.a, nil) // before tuning: a tuned CSR's MulVec runs on the cached form
		tuned := sparse.TuneMulVec(c.a)
		run("sell/"+c.name, c.a.ToSELL(), nil)
		if d, ok := tuned.(*sparse.DIA); ok {
			run("dia/"+c.name, d, nil)
			run("dia-full/"+c.name, fullBandDIA(b, c.a), nil)
		}
		format := strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", tuned), "*sparse."))
		run("tuned-"+format+"/"+c.name, tuned, nil)
	}
	for _, m := range []int{320, 640} {
		a := sparse.Poisson2D(m)
		run(fmt.Sprintf("serial/n=%d", a.Dim()), a, nil)
		run(fmt.Sprintf("sell/n=%d", a.Dim()), a.ToSELL(), nil)
		run(fmt.Sprintf("pooled/n=%d", a.Dim()), sparse.TuneMulVec(a), vec.DefaultPool)
	}
}

// BenchmarkOperatorSetup times the stages between lib-stream's operator
// and its tuned product on Poisson3D(64) (n = 262144, 1.8 M entries):
// assemble is the generator writing its CSR; newcsr-sorted is NewCSR
// over arrays whose rows are already in column order, what an upload of
// such an operator costs; tune-cold is TuneMulVec on a matrix with no
// cached decision — the offset scan and the folded band's fill, which
// every SetValues or Scale on a CSR pays again at its next solve.
func BenchmarkOperatorSetup(b *testing.B) {
	const m = 64
	a := sparse.Poisson3D(m)
	b.Run("assemble/poisson3d-64", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sparse.Poisson3D(m)
		}
	})
	rowPtr := make([]int, a.Dim()+1)
	colIdx := make([]int, 0, a.NNZ())
	for i := 0; i < a.Dim(); i++ {
		a.ScanRow(i, func(j int, _ float64) { colIdx = append(colIdx, j) })
		rowPtr[i+1] = len(colIdx)
	}
	b.Run("newcsr-sorted/poisson3d-64", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sparse.NewCSR(a.Dim(), rowPtr, colIdx, a.Values())
		}
	})
	b.Run("tune-cold/poisson3d-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := a.CloneValues()
			b.StartTimer()
			if _, ok := sparse.TuneMulVec(fresh).(*sparse.DIA); !ok {
				b.Fatal("poisson3d-64 not tuned to DIA")
			}
		}
	})
}

// BenchmarkPCGSolve compares per-call-allocating serial PCG against the
// zero-allocation form — one kernel reused on one engine workspace,
// serial and pooled — on a large grid (n = 102400).
func BenchmarkPCGSolve(b *testing.B) {
	a := sparse.Poisson2D(320)
	n := a.Dim()
	rhs := vec.New(n)
	vec.Random(rhs, 9)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Config{Tol: 1e-6, MaxIter: 60, Precond: jac}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.SolveOnce(krylov.NewPCGKernel(), a, rhs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name string
		pool *vec.Pool
	}{
		{"workspace-serial", nil},
		{"workspace-pooled", vec.DefaultPool},
	} {
		b.Run(c.name, func(b *testing.B) {
			k, ws := krylov.NewPCGKernel(), engine.NewWorkspace(n, c.pool)
			var res engine.Result
			// Warm: arena vectors, pool workers, partition cache.
			if err := engine.Solve(k, ws, a, rhs, opts, &res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := engine.Solve(k, ws, a, rhs, opts, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDotPooled measures the persistent-pool dot at engine scale,
// against BenchmarkDotSerial's serial kernel.
func BenchmarkDotPooled(b *testing.B) {
	n := 1 << 20
	x := vec.New(n)
	y := vec.New(n)
	vec.Random(x, 1)
	vec.Random(y, 2)
	vec.DefaultPool.Dot(x, y) // warm the pooled path outside the timer
	b.SetBytes(int64(16 * n))
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += vec.DefaultPool.Dot(x, y)
	}
	_ = s
}

// gramFamily is ten n-vectors and the 27 pairs of a parcg anchor batch at
// k = 2 over them: (R,R), (R,P) and (P,P) to index 8, R and P five
// vectors each. L1 is n = 512 (40 KB in all), L2 n = 4096 (320 KB).
func gramFamily(n int) (fam, xs, ys []vec.Vector) {
	for i := 0; i < 10; i++ {
		fam = append(fam, vec.New(n))
		vec.Random(fam[i], uint64(i)+1)
	}
	for _, f := range [3][2][]vec.Vector{{fam[:5], fam[:5]}, {fam[:5], fam[5:]}, {fam[5:], fam[5:]}} {
		for s := 0; s < 9; s++ {
			xs, ys = append(xs, f[0][s/2]), append(ys, f[1][s-s/2])
		}
	}
	return fam, xs, ys
}

// BenchmarkGramBatch is the batched inner product of the look-ahead
// schedules against the loop of Dot calls it replaced, bit for bit the
// same 27 sums.
func BenchmarkGramBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"L1", 512}, {"L2", 4096}} {
		_, xs, ys := gramFamily(c.n)
		out, part := make([]float64, len(xs)), make([]float64, len(xs)*4)
		b.Run(c.name+"/dot-calls", func(b *testing.B) {
			b.SetBytes(int64(16 * c.n * len(xs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = vec.Dot(xs[j], ys[j])
				}
			}
		})
		b.Run(c.name+"/dots", func(b *testing.B) {
			b.SetBytes(int64(16 * c.n * len(xs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vec.Dots(out, xs, ys, part)
			}
		})
	}
}

// BenchmarkCombine is a nine-term combination over a Krylov family
// against Zero and nine Axpy calls, bit for bit the same vector.
func BenchmarkCombine(b *testing.B) {
	const n = 4096
	fam, _, _ := gramFamily(n)
	dst, xs := fam[9], fam[:9]
	coef := []float64{0.5, -0.25, 0.125, 0.5, -0.25, 0.125, 0.5, -0.25, 0.125}
	b.Run("zero-axpy", func(b *testing.B) {
		b.SetBytes(int64(8 * n * (len(xs) + 1)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vec.Zero(dst)
			for j, x := range xs {
				vec.Axpy(coef[j], x, dst)
			}
		}
	})
	b.Run("combine", func(b *testing.B) {
		b.SetBytes(int64(8 * n * (len(xs) + 1)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vec.Combine(dst, nil, coef, xs)
		}
	})
}

// BenchmarkPipeUpdate is the stretch of a pipecg iteration between its
// product and its reduction — six recurrences, then (r,r) and (w,r) — as
// the six whole-vector calls and DotPair it was, and as the one leaf:
// seven vectors in L1 (n = 1024), in L2 (4096, the judged lib-ladder's
// order) and streamed (262144). The scalars keep every vector bounded
// however often the call repeats.
var pipeSink [2]float64

func BenchmarkPipeUpdate(b *testing.B) {
	for _, n := range []int{1024, 4096, 262144} {
		o := make([]vec.Vector, 7)
		for j := range o {
			o[j] = vec.New(n)
			vec.Random(o[j], uint64(j)+1)
		}
		r, w, nv, p, s, q, x := o[0], o[1], o[2], o[3], o[4], o[5], o[6]
		const alpha, beta = 1e-9, 0.5
		b.Run(fmt.Sprintf("six-calls-dotpair/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * 21))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vec.Xpay(r, beta, p)
				vec.Xpay(w, beta, s)
				vec.Xpay(nv, beta, q)
				vec.Axpy(alpha, p, x)
				vec.Axpy(-alpha, s, r)
				vec.Axpy(-alpha, q, w)
				pipeSink[0], pipeSink[1] = vec.DotPair(r, r, w)
			}
		})
		b.Run(fmt.Sprintf("leaf/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * 13))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pipeSink[0], pipeSink[1] = vec.PipeUpdate(alpha, beta, r, w, nv, p, s, q, x)
			}
		})
	}
}

// wholeVectorOnly hides everything of an operator but its whole product
// and its counts — the shape of the judged benchmark's tracing decorator —
// so the engine cannot take the product by rows.
type wholeVectorOnly struct{ sparse.Sparse }

// BenchmarkCGIteration is one cg iteration, cache-resident and not, on
// the schedule the engine runs when the operator offers its rows (sweep:
// update, product and (p,Ap) in one pass, then the fused x/r/(r,r) pass)
// against the same kernel on the same diagonals behind a wrapper that
// offers only MulVec (whole: product, dot, fused update, direction update,
// four passes). Both solve to the same bits. MB/iter is computed, not
// measured — the vector-lengths each schedule moves per iteration times
// 8n bytes — so the row carries a quantity that does not depend on the
// host's mood beside a time that does.
func BenchmarkCGIteration(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d-32", sparse.Poisson2D(32)},
		{"poisson2d-64", sparse.Poisson2D(64)},
		{"poisson3d-32", sparse.Poisson3D(32)},
		{"poisson3d-64", sparse.Poisson3D(64)},
	} {
		d, ok := sparse.TuneMulVec(c.a).(*sparse.DIA)
		if !ok {
			b.Fatalf("%s is not tuned to diagonal storage", c.name)
		}
		n := d.Dim()
		rhs := vec.New(n)
		vec.Random(rhs, 9)
		// Vector-lengths per iteration: the product reads p and writes
		// ap beside the band; the dot reads two, the fused update moves
		// six, the direction update three. The sweep folds the last, the
		// first and the dot into the band + r, p (read and written), ap.
		// The band streamed is the values stored: a symmetric band reads
		// its subdiagonals back out of their mirrors, and a repeating
		// diagonal is one short run.
		band := d.StoredValues()
		for _, s := range []struct {
			name    string
			op      sparse.Matrix
			vectors int
		}{
			{"sweep", d, 4 + 6},
			{"whole", wholeVectorOnly{d}, 2 + 2 + 6 + 3},
		} {
			b.Run(s.name+"/"+c.name, func(b *testing.B) {
				k, ws := krylov.NewCGKernel(), engine.NewWorkspace(n, nil)
				var res engine.Result
				opts := engine.Config{Tol: 1e-8}
				if err := engine.Solve(k, ws, s.op, rhs, opts, &res); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := engine.Solve(k, ws, s.op, rhs, opts, &res); err != nil {
						b.Fatal(err)
					}
				}
				iters := float64(b.N) * float64(res.Iterations)
				b.ReportMetric(float64(b.Elapsed().Microseconds())/iters, "us/iter")
				b.ReportMetric(float64(8*(band+s.vectors*n))/1e6, "MB/iter")
			})
		}
	}
}

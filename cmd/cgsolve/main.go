// Command cgsolve solves generated SPD test systems with any method in
// the solve registry, printing convergence and operation statistics.
// The -method vocabulary comes from solve.Methods() at runtime, so a
// newly registered solver appears here without touching this file.
//
// Examples:
//
//	cgsolve -problem poisson2d -m 64 -method cg
//	cgsolve -problem poisson2d -m 64 -method vrcg -k 3
//	cgsolve -problem poisson3d -m 16 -method pcg -precond ssor
//	cgsolve -problem ring -n 2048 -method gmres -restart 30
//	cgsolve -matrix general.mtx -method bicgstab
//	cgsolve -problem toeplitz -n 4096 -method sstep -s 4
//	cgsolve -problem poisson3d -m 32 -method pcg -workers 8 -repeat 16
//	cgsolve -problem poisson2d -m 24 -method parcg -k 4 -procs 64
//
// The -matrix flag loads a MatrixMarket .mtx system through the public
// sparse package (with -rhs for an array-format right-hand side); the
// -workers flag routes the solve through the hot-path execution
// engine: a persistent worker pool for the vector kernels plus the
// nnz-balanced parallel SpMV (0 = all CPUs, 1 = serial kernels).
// -repeat re-solves the same system -repeat times (reporting the last
// solve) through one prepared solve.Session, reusing the solver
// workspace for the methods that have one (cg, pcg, pipecg) — the
// zero-allocation steady-state regime the serving API is built for.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cgsolve: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	problem := flag.String("problem", "poisson2d", "poisson1d|poisson2d|poisson3d|toeplitz|random|ring|spectrum")
	matrixFile := flag.String("matrix", "", "MatrixMarket coordinate-format .mtx matrix file (overrides -problem)")
	rhsFile := flag.String("rhs", "", "MatrixMarket array-format right-hand-side file (with -matrix)")
	m := flag.Int("m", 32, "grid side for poisson problems")
	n := flag.Int("n", 1024, "order for non-grid problems")
	kappa := flag.Float64("kappa", 100, "condition number for -problem spectrum")
	method := flag.String("method", "cg", "solver method: "+solve.Usage())
	pc := flag.String("precond", "jacobi", "pcg preconditioner: identity|jacobi|ssor|ic0")
	k := flag.Int("k", 2, "look-ahead parameter for vrcg/parcg")
	s := flag.Int("s", 4, "block size for sstep")
	restart := flag.Int("restart", 0, "gmres restart length m (0 = method default)")
	procs := flag.Int("procs", 8, "simulated processor count for the parcg methods")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	maxIter := flag.Int("maxiter", 0, "iteration cap (0 = method default)")
	seed := flag.Uint64("seed", 1, "rhs/solution seed")
	workers := flag.Int("workers", 0, "engine worker count (0 = all CPUs, 1 = serial kernels)")
	repeat := flag.Int("repeat", 1, "solve the system this many times, reusing workspaces")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `usage: cgsolve [flags]

registered methods (one-liners from solve.Describe):
%s
file formats (the public sparse package reader):
  -matrix  MatrixMarket coordinate format: "%%%%MatrixMarket matrix coordinate
           real|integer|pattern general|symmetric" headers; symmetric
           entries are mirrored, the matrix must be square SPD.
  -rhs     MatrixMarket array format: one real column, length equal to
           the matrix order. Omitted: a right-hand side is manufactured
           from a random known solution so the error is checkable.

flags:
`, solve.Describe())
		flag.PrintDefaults()
	}
	flag.Parse()

	if *workers < 0 {
		fatalf("-workers must be >= 0")
	}
	if *repeat < 1 {
		fatalf("-repeat must be >= 1")
	}
	var pool *sparse.Pool
	if *workers != 1 {
		if *workers == 0 {
			pool = sparse.DefaultPool
		} else {
			pool = sparse.NewPool(*workers)
		}
	}

	var a *sparse.CSR
	if *matrixFile != "" {
		f, err := os.Open(*matrixFile)
		if err != nil {
			fatalf("open matrix: %v", err)
		}
		a, err = sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			fatalf("parse matrix: %v", err)
		}
		// The CG family needs symmetry; the general-operator methods
		// (bicgstab, gmres, cgnr, lsqr) advertise otherwise via their
		// registry caps, so a nonsymmetric .mtx is fine for them.
		if !solve.MethodCaps(*method).Nonsymmetric && !a.IsSymmetric(1e-12) {
			fatalf("matrix %s is not symmetric; method %q requires SPD (pick a nonsymmetric-capable method: see -method list)",
				*matrixFile, *method)
		}
		*problem = *matrixFile
	} else {
		switch *problem {
		case "poisson1d":
			a = sparse.Poisson1D(*m)
		case "poisson2d":
			a = sparse.Poisson2D(*m)
		case "poisson3d":
			a = sparse.Poisson3D(*m)
		case "toeplitz":
			a = sparse.TridiagToeplitz(*n, 4.2, -1)
		case "random":
			a = sparse.RandomSPD(*n, 8, *seed)
		case "ring":
			a = sparse.RingLaplacian(*n, 0.5)
		case "spectrum":
			a = sparse.PrescribedSpectrum(*n, *kappa)
		default:
			fatalf("unknown problem %q", *problem)
		}
	}
	dim := a.Dim()

	// Right-hand side: from file, or manufactured from a known solution
	// so the error is checkable.
	var b vec.Vector
	var xTrue vec.Vector
	if *rhsFile != "" {
		f, err := os.Open(*rhsFile)
		if err != nil {
			fatalf("open rhs: %v", err)
		}
		b, err = sparse.ReadMatrixMarketVector(f)
		f.Close()
		if err != nil {
			fatalf("parse rhs: %v", err)
		}
		if len(b) != dim {
			fatalf("rhs length %d for matrix order %d", len(b), dim)
		}
	} else {
		xTrue = vec.New(dim)
		vec.Random(xTrue, *seed)
		b = vec.New(dim)
		a.MulVec(b, xTrue)
	}

	// One option set serves every method: each solver consumes what it
	// understands and ignores the rest.
	opts := []solve.Option{
		solve.WithTol(*tol),
		solve.WithMaxIter(*maxIter),
		solve.WithLookahead(*k),
		solve.WithBlockSize(*s),
		solve.WithProcessors(*procs),
	}
	if *restart > 0 {
		opts = append(opts, solve.WithRestart(*restart))
	}
	if pool != nil {
		opts = append(opts, solve.WithPool(pool))
	}
	if *method == "pcg" {
		p, err := precond.ByName(*pc, a)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, solve.WithPreconditioner(p))
	}

	// A Session prepares (method, operator, options) once; the -repeat
	// loop then runs the amortized serving path.
	sess, err := solve.NewSession(*method, a, opts...)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("problem=%s n=%d nnz=%d maxrow=%d method=%s engine-workers=%d repeat=%d\n",
		*problem, dim, a.NNZ(), a.MaxRowNonzeros(), *method, pool.Workers(), *repeat)

	start := time.Now()
	var res *solve.Result
	for rep := 0; rep < *repeat; rep++ {
		res, err = sess.Solve(b)
		if err != nil && !errors.Is(err, solve.ErrNotConverged) {
			fatalf("%v", err)
		}
	}
	elapsed := time.Since(start)

	rel := res.TrueResidualNorm / vec.Norm2(b)
	if xTrue != nil && res.X != nil {
		errN := vec.New(dim)
		vec.Sub(errN, res.X, xTrue)
		fmt.Printf("converged=%v iterations=%d true-rel-residual=%.3e solution-error=%.3e\n",
			res.Converged, res.Iterations, rel, vec.Norm2(errN))
	} else {
		fmt.Printf("converged=%v iterations=%d true-rel-residual=%.3e\n", res.Converged, res.Iterations, rel)
	}
	fmt.Printf("stats: %s syncs=%d\n", res.Stats, res.Syncs)
	if res.Drift != nil {
		fmt.Printf("vrcg: k=%d reanchors=%d refreshes=%d fallback-dots=%d\n",
			*k, res.Drift.Reanchors, res.Drift.Refreshes, res.Drift.FallbackDots)
	}
	if res.Blocks > 0 {
		fmt.Printf("sstep: s=%d blocks=%d\n", *s, res.Blocks)
	}
	if len(res.Clocks) > 0 {
		fmt.Printf("machine: P=%d per-iter-time=%.2f total-time=%.2f messages=%d words=%d\n",
			*procs, res.PerIterTime(), res.TotalTime(), res.Machine.Messages, res.Machine.Words)
	}
	fmt.Printf("wall: total=%v per-solve=%v\n", elapsed, elapsed/time.Duration(*repeat))
}

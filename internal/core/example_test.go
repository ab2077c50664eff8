package core_test

import (
	"fmt"
	"log"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// ExampleNewKernel demonstrates the basic solver call: the restructured
// CG iteration with look-ahead k = 2 on a 2D Poisson system, run once
// through the engine driver.
func ExampleNewKernel() {
	a := sparse.Poisson2D(16) // 256 unknowns
	xTrue := vec.New(a.Dim())
	vec.Random(xTrue, 1)
	b := vec.New(a.Dim())
	a.MulVec(b, xTrue)

	res, err := engine.SolveOnce(core.NewKernel(), a, b, engine.Config{K: 2, Tol: 1e-10})
	if err != nil {
		log.Fatal(err)
	}
	errV := vec.New(a.Dim())
	vec.Sub(errV, res.X, xTrue)
	fmt.Printf("converged=%v error-small=%v one-matvec-per-iteration=%v\n",
		res.Converged,
		vec.Norm2(errV) < 1e-6,
		res.Stats.MatVecs <= res.Iterations+res.Refreshes*5+10)
	// Output: converged=true error-small=true one-matvec-per-iteration=true
}

// ExampleStarCoefficients shows the paper's equation (*) coefficients
// for a two-step look-ahead with given parameter history.
func ExampleStarCoefficients() {
	lambdas := []float64{0.5, 0.25}
	alphas := []float64{0.1, 0.2}
	aC, bC, cC := core.StarCoefficients(lambdas, alphas)
	fmt.Printf("lengths: %d %d %d (2k+1 for k=2)\n", len(aC), len(bC), len(cC))
	// rho_0 is invariant under the CG coefficient recurrences, so the
	// (r,r) carry-through coefficient is always 1.
	fmt.Printf("a0=%v\n", aC[0])
	// Output:
	// lengths: 5 5 5 (2k+1 for k=2)
	// a0=1
}

package solve_test

import (
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// oneBlock is the whole operator posing as the one row block of itself
// (the engine's RowBlock seam): every sum is already whole, so the solve
// is the plain one, but each reduction the schedule waits for crosses
// CollectSums, which counts it. The embedded CSR carries the transpose
// product, so cgnr and lsqr run on it too.
type oneBlock struct {
	*sparse.CSR
	collects int
}

func (o *oneBlock) Err() error            { return nil }
func (o *oneBlock) PostSums([]float64)    {}
func (o *oneBlock) CollectSums([]float64) { o.collects++ }

// TestDeclaredSyncsAreTheWaits: each method's declared Result.Syncs is
// the number of reductions its schedule waited for — the collects of a
// one-block solve, less the solve loop's two (‖b‖ before Init, the exit true
// residual after Finish) — but for the offsets in the table, each with
// its reason. Syncs is still declared per method (the registry's syncs
// functions); this is the harness a measured Syncs will be held to.
func TestDeclaredSyncsAreTheWaits(t *testing.T) {
	// offset is collects − 2 − Syncs where that is not zero.
	offset := map[string]func(res *solve.Result) int{
		// gmres publishes its last cycle's refreshed residual norm as the
		// true residual: there is no exit norm to take off.
		"gmres": func(*solve.Result) int { return -1 },
		// The pipelined anchor batches are awaited in the Step that issues
		// them (ROADMAP item 19), and the true-residual audit every 32
		// iterations waits for its norm; neither is declared. The declared
		// Gershgorin bound is a row scan, not a reduction.
		"parcg": func(res *solve.Result) int { return res.Drift.Reanchors + res.Iterations/32 - 1 },
	}
	a := sparse.Poisson2D(32)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	for _, method := range solve.Methods() {
		op := &oneBlock{CSR: a}
		res, err := solve.MustNew(method).Solve(op, b, solve.WithTol(1e-8))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		want := 0
		if f := offset[method]; f != nil {
			want = f(res)
		}
		if got := op.collects - 2 - res.Syncs; got != want {
			t.Errorf("%s: waited for %d reductions, declares %d Syncs: offset %d, want %d",
				method, op.collects-2, res.Syncs, got, want)
		}
	}
}

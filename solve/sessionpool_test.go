package solve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"vrcg/solve"
	"vrcg/sparse"
)

func poolFixture(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	a := sparse.Poisson2D(12)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return a, b
}

func TestSessionPoolHitsAndParity(t *testing.T) {
	a, b := poolFixture(t)
	p, err := solve.NewSessionPool("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}

	want, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k < 3; k++ {
		ps, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ps.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.X {
			if d := math.Abs(res.X[i] - want.X[i]); d > 1e-12 {
				t.Fatalf("round %d: X[%d] differs by %g", k, i, d)
			}
		}
		ps.Release()
	}

	st := p.Stats()
	if st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("sequential reuse should be all hits: %+v", st)
	}
	if st.Size != 1 || st.Idle != 1 {
		t.Fatalf("pool should hold exactly the prewarmed session: %+v", st)
	}
	if st.HitRate() != 1 {
		t.Fatalf("hit rate %v, want 1", st.HitRate())
	}
}

func TestSessionPoolGrowsUnderConcurrency(t *testing.T) {
	a, _ := poolFixture(t)
	p, err := solve.NewSessionPool("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	// Hold three sessions at once: one warm hit, two forced misses.
	var held []*solve.PooledSession
	for i := 0; i < 3; i++ {
		ps, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ps)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 3 || st.Idle != 0 {
		t.Fatalf("stats after 3 concurrent acquires: %+v", st)
	}
	for _, ps := range held {
		ps.Release()
	}
	if st := p.Stats(); st.Idle != 3 {
		t.Fatalf("all sessions should be idle after release: %+v", st)
	}
}

func TestSessionPoolPerAcquireDeadline(t *testing.T) {
	a, b := poolFixture(t)
	p, err := solve.NewSessionPool("cg", a, solve.WithTol(1e-14))
	if err != nil {
		t.Fatal(err)
	}

	// A dead context cancels the solve...
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ps.Solve(b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	ps.Release()

	// ...and the SAME pooled session solves fine on the next acquire
	// with a live context: the deadline is per-request, not baked in.
	ps, err = p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence with a live context")
	}
	ps.Release()
}

func TestSessionPoolConcurrentClients(t *testing.T) {
	a, b := poolFixture(t)
	p, err := solve.NewSessionPool("pipecg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	want, err := solve.MustNew("pipecg").Solve(a, b, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				ps, err := p.Acquire(ctx)
				if err != nil {
					cancel()
					errc <- err
					return
				}
				res, err := ps.Solve(b)
				if err != nil {
					errc <- err
				} else {
					for i := range res.X {
						if math.Abs(res.X[i]-want.X[i]) > 1e-12 {
							errc <- errors.New("concurrent solve diverged from reference")
							break
						}
					}
				}
				ps.Release()
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits+st.Misses != 64 {
		t.Fatalf("expected 64 acquires, got %+v", st)
	}
	if st.Size > 8 {
		t.Fatalf("pool grew past peak concurrency: %+v", st)
	}
}

func TestSessionPoolBadMethod(t *testing.T) {
	a, _ := poolFixture(t)
	if _, err := solve.NewSessionPool("no-such-method", a); !errors.Is(err, solve.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

// TestSessionPoolWarmSolveZeroAlloc proves the pooled serving path
// keeps the Session zero-allocation regime: after warm-up, an acquire +
// solve + release cycle on a background context performs at most the
// one context-box allocation per Acquire and none in the solve itself.
func TestSessionPoolWarmSolveZeroAlloc(t *testing.T) {
	a, b := poolFixture(t)
	p, err := solve.NewSessionPool("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Solve(b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ps.Solve(b); err != nil {
			t.Fatal(err)
		}
	})
	ps.Release()
	if allocs != 0 {
		t.Fatalf("warm pooled Solve allocates %v times per op, want 0", allocs)
	}
}

// TestPooledSolveManyIsBatch: a pooled SolveMany, which fans out on the
// acquired session and sessions acquired from its pool, returns Batch's
// bits — X, iterations, residual norms, Stats, History and errors —
// for every engine method at one and two workers, warm calls included,
// and gives its worker sessions back.
func TestPooledSolveManyIsBatch(t *testing.T) {
	a := sparse.Poisson2D(9)
	B := rhsSet(a.Dim(), 5)
	cases := []struct {
		name  string
		extra []solve.Option
	}{
		{"plain", nil},
		{"history", []solve.Option{solve.WithHistory(true)}},
		{"capped", []solve.Option{solve.WithMaxIter(3)}},
	}
	for _, method := range engineMethods {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-11))
		if err != nil {
			t.Fatal(err)
		}
		p, err := solve.NewSessionPool(method, a, solve.WithTol(1e-11))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			for _, c := range cases {
				extra := append([]solve.Option{solve.WithBatchWorkers(workers)}, c.extra...)
				want, wantErr := solve.Batch(sess, B, extra...)
				ps, err := p.Acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ { // cold storage, then warm
					got, gotErr := ps.SolveMany(B, extra...)
					where := fmt.Sprintf("%s workers=%d %s round %d", method, workers, c.name, round)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, want %v", where, gotErr, wantErr)
					}
					sameBatchBits(t, where, got, want)
				}
				ps.Release()
			}
		}
		if st := p.Stats(); st.Size != 2 || st.Idle != 2 {
			t.Errorf("%s: pool %+v, want both sessions built and given back", method, st)
		}
	}
}

// TestPooledSolveManyConcurrent: pooled batches running at once on one
// pool, each fanning out to workers acquired from it, keep their own
// results.
func TestPooledSolveManyConcurrent(t *testing.T) {
	a := sparse.Poisson2D(9)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := solve.NewSessionPool("cg", a, solve.WithTol(1e-11))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	sets := make([][][]float64, clients)
	wants := make([][]solve.Result, clients)
	for c := range sets {
		sets[c] = rhsSet(a.Dim(), 3+c)[c:]
		if wants[c], err = solve.Batch(sess, sets[c]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				ps, err := p.Acquire(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				got, err := ps.SolveMany(sets[c], solve.WithBatchWorkers(2))
				if err != nil {
					t.Error(err)
				}
				for i := range got {
					if !slices.Equal(got[i].X, wants[c][i].X) {
						t.Errorf("client %d round %d rhs %d: X differs from Batch's", c, round, i)
					}
				}
				ps.Release()
			}
		}()
	}
	wg.Wait()
}

// sameBatchBits fails t unless got and want agree bit for bit in every
// field Batch computes.
func sameBatchBits(t *testing.T, where string, got, want []solve.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", where, len(got), len(want))
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Method != w.Method || g.Iterations != w.Iterations || g.Converged != w.Converged ||
			math.Float64bits(g.ResidualNorm) != math.Float64bits(w.ResidualNorm) ||
			math.Float64bits(g.TrueResidualNorm) != math.Float64bits(w.TrueResidualNorm) ||
			g.Stats != w.Stats || g.Syncs != w.Syncs || g.Blocks != w.Blocks ||
			!slices.Equal(bits(g.X), bits(w.X)) || !slices.Equal(bits(g.History), bits(w.History)) ||
			(g.History == nil) != (w.History == nil) {
			t.Fatalf("%s rhs %d: got %+v, want %+v", where, i, g, w)
		}
	}
}

// TestPooledSolveManyAllocsFlat: a warm pooled SolveMany copies into
// storage it keeps, so its allocations do not grow with the number of
// right-hand sides.
func TestPooledSolveManyAllocsFlat(t *testing.T) {
	a := sparse.Poisson2D(9)
	p, err := solve.NewSessionPool("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Release()
	for _, workers := range []int{1, 2} {
		allocs := func(B [][]float64) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := ps.SolveMany(B, solve.WithBatchWorkers(workers)); err != nil {
					t.Fatal(err)
				}
			})
		}
		narrow, wide := allocs(rhsSet(a.Dim(), 2)), allocs(rhsSet(a.Dim(), 16))
		if wide > narrow {
			t.Errorf("workers=%d: a warm 16-rhs SolveMany allocates %v times, a 2-rhs one %v", workers, wide, narrow)
		}
		t.Logf("workers=%d: %v allocs at 2 rhs, %v at 16", workers, narrow, wide)
	}
}

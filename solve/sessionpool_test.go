package solve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
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

// TestBatchResultsOwnTheirReports: every fan-out route — Batch,
// Session.SolveMany, PooledSession.SolveMany — hands back results that
// report their own solve and share no storage. Drift (and, in machine
// mode, Clocks and Machine) must equal the lone Session.Solve's for the
// same right-hand side; Phases holds measured times, so its per-phase
// observation counts (one a driver step) must.
func TestBatchResultsOwnTheirReports(t *testing.T) {
	a := sparse.Poisson2D(9)
	B := rhsSet(a.Dim(), 5)
	cases := []struct {
		name, method string
		opts         []solve.Option
	}{
		{"vrcg", "vrcg", nil},
		{"parcg", "parcg", nil},
		{"parcg machine", "parcg", []solve.Option{solve.WithProcessors(4)}},
		{"parcg-cg", "parcg-cg", nil},
		{"parcg-pipe", "parcg-pipe", nil},
	}
	for _, c := range cases {
		opts := append([]solve.Option{solve.WithTol(1e-11), solve.WithValidateEvery(5)}, c.opts...)
		lone, err := solve.NewSession(c.method, a, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]solve.Result, len(B))
		for i, b := range B {
			res, err := lone.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = detach(*res)
		}
		sess, err := solve.NewSession(c.method, a, opts...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := solve.NewSessionPool(c.method, a, opts...)
		if err != nil {
			t.Fatal(err)
		}
		routes := []struct {
			name string
			run  func(w solve.Option) ([]solve.Result, func())
		}{
			{"Batch", func(w solve.Option) ([]solve.Result, func()) {
				got, err := solve.Batch(sess, B, w)
				if err != nil {
					t.Fatal(err)
				}
				return got, func() {}
			}},
			{"Session.SolveMany", func(w solve.Option) ([]solve.Result, func()) {
				got, err := sess.SolveMany(B, w)
				if err != nil {
					t.Fatal(err)
				}
				return got, func() {}
			}},
			{"PooledSession.SolveMany", func(w solve.Option) ([]solve.Result, func()) {
				ps, err := p.Acquire(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got, err := ps.SolveMany(B, w)
				if err != nil {
					t.Fatal(err)
				}
				return got, ps.Release
			}},
		}
		for _, r := range routes {
			for _, workers := range []int{1, 2} {
				where := fmt.Sprintf("%s %s workers=%d", c.name, r.name, workers)
				got, done := r.run(solve.WithBatchWorkers(workers))
				sameReports(t, where, got, want)
				shareNothing(t, where, got)
				done()
			}
		}
	}
}

// detach copies out what a lone solve's result points at, so the
// session's next solve cannot change it.
func detach(res solve.Result) solve.Result {
	res.X = slices.Clone(res.X)
	res.History = slices.Clone(res.History)
	res.Clocks = slices.Clone(res.Clocks)
	if res.Drift != nil {
		d := *res.Drift
		res.Drift = &d
	}
	if res.Phases != nil {
		ph := *res.Phases
		res.Phases = &ph
	}
	if res.Machine != nil {
		m := *res.Machine
		res.Machine = &m
	}
	return res
}

// sameReports fails t unless every result reports what the lone solve
// of its right-hand side reported: X, Drift, Clocks and Machine to the
// bit, Phases by its observation counts.
func sameReports(t *testing.T, where string, got, want []solve.Result) {
	t.Helper()
	sameBatchBits(t, where, got, want)
	for i := range want {
		g, w := got[i], want[i]
		if (g.Drift == nil) != (w.Drift == nil) || g.Drift != nil && *g.Drift != *w.Drift {
			t.Errorf("%s rhs %d: Drift %+v, want %+v", where, i, g.Drift, w.Drift)
		}
		if (g.Phases == nil) != (w.Phases == nil) {
			t.Errorf("%s rhs %d: Phases %v, want %v", where, i, g.Phases != nil, w.Phases != nil)
		} else if g.Phases != nil {
			for ph := range w.Phases {
				if g.Phases[ph].Count != w.Phases[ph].Count {
					t.Errorf("%s rhs %d: phase %d observed %d times, want %d", where, i, ph, g.Phases[ph].Count, w.Phases[ph].Count)
				}
			}
		}
		if !slices.Equal(g.Clocks, w.Clocks) || (g.Machine == nil) != (w.Machine == nil) || g.Machine != nil && *g.Machine != *w.Machine {
			t.Errorf("%s rhs %d: Clocks/Machine differ from the lone solve's", where, i)
		}
	}
}

// shareNothing fails t if any storage reachable from one result — the
// target of a pointer, the backing array of a slice, a map — overlaps
// storage reachable from another.
func shareNothing(t *testing.T, where string, results []solve.Result) {
	t.Helper()
	reach := make([][]span, len(results))
	for i := range results {
		reach[i] = spans(reflect.ValueOf(results[i]), nil)
	}
	for i := range reach {
		for j := i + 1; j < len(reach); j++ {
			for _, a := range reach[i] {
				for _, b := range reach[j] {
					if a.lo < b.hi && b.lo < a.hi {
						t.Errorf("%s: results %d and %d share %s storage", where, i, j, a.kind)
					}
				}
			}
		}
	}
}

// span is one block of memory a result reaches: [lo, hi) and what kind
// of reference reached it.
type span struct {
	lo, hi uintptr
	kind   reflect.Kind
}

// spans appends the memory v reaches through pointers, slices and maps.
func spans(v reflect.Value, out []span) []span {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out = append(out, span{v.Pointer(), v.Pointer() + max(v.Type().Elem().Size(), 1), reflect.Pointer})
			out = spans(v.Elem(), out)
		}
	case reflect.Slice:
		if v.Cap() > 0 {
			out = append(out, span{v.Pointer(), v.Pointer() + max(uintptr(v.Cap())*v.Type().Elem().Size(), 1), reflect.Slice})
			for i := 0; i < v.Len(); i++ {
				out = spans(v.Index(i), out)
			}
		}
	case reflect.Map:
		if !v.IsNil() {
			out = append(out, span{v.Pointer(), v.Pointer() + 1, reflect.Map})
			for it := v.MapRange(); it.Next(); {
				out = spans(it.Value(), spans(it.Key(), out))
			}
		}
	case reflect.Interface:
		if !v.IsNil() {
			out = spans(v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = spans(v.Field(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = spans(v.Index(i), out)
		}
	}
	return out
}

package engine

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"vrcg/internal/vec"
)

// schedKernel makes, per Step, the four workspace calls of a CG
// iteration (MatVec, Dot, FusedCGUpdate, Xpay) plus one issued pair and
// one issued batch, awaiting each — unless leak says to return from
// Init or Step with the reduction still in flight.
type schedKernel struct {
	leak string // "", "Init" or "Step"

	x, r, p, ap vec.Vector
	pair        [2]float64
	batch       [5]float64
	xs, ys      []vec.Vector
}

func (k *schedKernel) Name() string { return "sched" }

func (k *schedKernel) Init(r *Run) (float64, error) {
	ws := r.Ws
	k.x, k.r, k.p, k.ap = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)
	vec.Zero(k.x)
	for i := range k.r {
		k.r[i] = 1 / float64(i+1)
		k.p[i] = math.Sin(float64(i))
	}
	k.xs = []vec.Vector{k.r, k.r, k.p, k.p, k.ap}
	k.ys = []vec.Vector{k.r, k.p, k.p, k.ap, k.ap}
	r.Res.X = k.x
	if k.leak == "Init" {
		ws.IssueDotPair(k.r, k.r, k.p)
	}
	return 1, nil
}

func (k *schedKernel) Residual(*Run) float64 { return 1 }

func (k *schedKernel) Step(r *Run) error {
	ws := r.Ws
	ws.MatVec(r.A, k.ap, k.p)
	pap := ws.Dot(k.p, k.ap)
	ws.FusedCGUpdate(1e-3/pap, k.p, k.ap, k.x, k.r)
	ws.Xpay(k.r, 0.5, k.p)

	ws.IssueDotPair(k.r, k.r, k.p)
	ws.MatVec(r.A, k.ap, k.p)
	k.pair[0], k.pair[1] = ws.AwaitDotPair()

	ws.IssueDots(k.batch[:], k.xs, k.ys)
	if k.leak == "Step" {
		return nil
	}
	ws.Await()
	r.Tick(1)
	return nil
}

func (k *schedKernel) Finish(*Run) {}

// TestInFlightBetweenStepsIsDriverError: "nothing in flight between
// driver steps" is enforced, not a convention — and the offending
// reduction is completed, so the workspace serves the next solve.
func TestInFlightBetweenStepsIsDriverError(t *testing.T) {
	a, b := system(64)
	for _, blocking := range []bool{false, true} {
		ws := NewWorkspace(64, nil)
		var res Result
		for _, call := range []string{"Init", "Step"} {
			err := Solve(&schedKernel{leak: call}, ws, a, b, Config{MaxIter: 3, Blocking: blocking}, &res)
			if !errors.Is(err, errInFlight) {
				t.Fatalf("blocking=%v: kernel leaking from %s: got %v, want errInFlight", blocking, call, err)
			}
			if ws.inFlight {
				t.Fatalf("blocking=%v: reduction left in flight after the %s error", blocking, call)
			}
		}
		if err := Solve(&schedKernel{}, ws, a, b, Config{MaxIter: 3, Blocking: blocking}, &res); err != nil {
			t.Fatalf("blocking=%v: clean kernel after the leaks: %v", blocking, err)
		}
	}
}

// TestIssueAwaitScheduleOnly: evaluate-at-issue (serial and pooled) and
// the overlapped background evaluation give Float64bits-equal sums; the
// blocking schedule starts no goroutine — nor does any on a host with one
// P — the fused pair wakes one, and a batch at most one per part and per
// core.
func TestIssueAwaitScheduleOnly(t *testing.T) {
	const n = 5000 // spans several blocks of the reduction tree
	a, b := system(n)
	pool := vec.NewPool(3)
	defer pool.Close()

	run := func(ws *Workspace, blocking bool) *schedKernel {
		k := &schedKernel{}
		var res Result
		if err := Solve(k, ws, a, b, Config{MaxIter: 4, Blocking: blocking, Pool: ws.Pool()}, &res); err != nil {
			t.Fatal(err)
		}
		return k
	}
	serialWS, pooledWS := NewWorkspace(n, nil), NewWorkspace(n, pool)
	ref := run(serialWS, true)
	pooled := run(pooledWS, true)
	for name, ws := range map[string]*Workspace{"serial": serialWS, "pooled": pooledWS} {
		if got := len(ws.red.reqs); got != 0 || ws.red.quit != nil {
			t.Errorf("%s blocking schedule started %d reduction worker(s)", name, got)
		}
	}

	ws := NewWorkspace(n, pool)
	var res Result
	k := &schedKernel{}
	if err := Solve(k, ws, a, b, Config{MaxIter: 1, Pool: pool}, &res); err != nil {
		t.Fatal(err)
	}
	want := min(len(k.batch), runtime.GOMAXPROCS(0))
	if want == 1 {
		want = 0 // one P: evaluated at issue
	}
	if got := len(ws.red.reqs); got != want {
		t.Errorf("overlapped 5-part batch started %d workers, want %d", got, want)
	}
	over := run(ws, false)

	for name, got := range map[string]*schedKernel{"pooled": pooled, "overlapped": over} {
		for i := range ref.pair {
			if math.Float64bits(got.pair[i]) != math.Float64bits(ref.pair[i]) {
				t.Errorf("%s pair[%d] = %x, serial blocking %x", name, i, got.pair[i], ref.pair[i])
			}
		}
		for i := range ref.batch {
			if math.Float64bits(got.batch[i]) != math.Float64bits(ref.batch[i]) {
				t.Errorf("%s batch[%d] = %x, serial blocking %x", name, i, got.batch[i], ref.batch[i])
			}
		}
	}

	// The pair alone wakes one goroutine however many cores there are.
	pws := NewWorkspace(n, nil)
	pws.IssueDotPair(b, b, b)
	pws.AwaitDotPair()
	if got := len(pws.red.reqs); got != 1 {
		t.Errorf("fused pair started %d workers, want 1", got)
	}
}

// TestPhaseClock: with timing off (the default, what cg runs on) the
// dispatch methods have no clock to read; with it on, every call reads
// it exactly twice and the driver publishes one observation per phase
// per step.
func TestPhaseClock(t *testing.T) {
	a, b := system(64)
	ws := NewWorkspace(64, nil)
	var res Result
	if ws.now != nil {
		t.Fatal("a new workspace must have no phase clock")
	}
	if err := Solve(&schedKernel{}, ws, a, b, Config{MaxIter: 5, Blocking: true}, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Phases.Empty() {
		t.Fatal("phases observed with timing off")
	}

	reads := 0
	ws.now = func() time.Duration { reads++; return time.Duration(reads) * time.Microsecond }
	if err := Solve(&schedKernel{}, ws, a, b, Config{MaxIter: 5, Blocking: true}, &res); err != nil {
		t.Fatal(err)
	}
	// Per step: MatVec, Dot, FusedCGUpdate, Xpay, issue, MatVec, await,
	// issue, await = 9 timed calls.
	if want := 2 * 9 * res.Iterations; reads != want {
		t.Errorf("clock read %d times over %d steps, want %d", reads, res.Iterations, want)
	}
	for p := Phase(0); p < NumPhases; p++ {
		if got := res.Phases[p].Count; got != uint64(res.Iterations) {
			t.Errorf("phase %s: %d observations for %d steps", p.Name(), got, res.Iterations)
		}
	}
	// Each timed call lasts one tick of the fake clock: 2 spmv, 5
	// reduction (Dot, two issues, two awaits), 2 update per step.
	for p, calls := range map[Phase]float64{PhaseSpMV: 2, PhaseReduction: 5, PhaseUpdate: 2} {
		if got := res.Phases[p].Sum; got != calls*float64(res.Iterations) {
			t.Errorf("phase %s: %g us charged, want %g", p.Name(), got, calls*float64(res.Iterations))
		}
	}
}

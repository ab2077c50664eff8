package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// dirKernel makes one Direction call per Step, an update pending.
type dirKernel struct {
	x, r, p, ap vec.Vector
	pap         []float64
}

func (k *dirKernel) Name() string { return "dir" }

func (k *dirKernel) Init(r *Run) (float64, error) {
	ws := r.Ws
	k.x, k.r, k.p, k.ap = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)
	for i := range k.r {
		k.r[i] = 1 / float64(i+1)
		k.p[i] = math.Sin(float64(i))
	}
	k.pap = k.pap[:0]
	r.Res.X = k.x
	return 1, nil
}

func (k *dirKernel) Residual(*Run) float64 { return 1 }

func (k *dirKernel) Step(r *Run) error {
	k.pap = append(k.pap, r.Direction(k.r, 0.5, k.p, k.ap))
	r.Tick(1)
	return nil
}

func (k *dirKernel) Finish(*Run) {}

// spyOp is a row-sweepable operator that writes down how its products
// were taken; as a spyBlock it is also the one row block of itself.
type spyOp struct {
	*sparse.DIA
	log []string
}

func (o *spyOp) MulVec(dst, x []float64) {
	o.log = append(o.log, "MulVec")
	o.DIA.MulVec(dst, x)
}

func (o *spyOp) MulVecPool(pool *sparse.Pool, dst, x []float64) {
	o.log = append(o.log, "MulVec")
	o.DIA.MulVecPool(pool, dst, x)
}

func (o *spyOp) MulRows(lo, hi int, dst, x, src []float64, beta float64, lead int) {
	o.log = append(o.log, "MulRows")
	o.DIA.MulRows(lo, hi, dst, x, src, beta, lead)
}

type spyBlock struct{ *spyOp }

func (b spyBlock) Err() error            { return nil }
func (b spyBlock) PostSums([]float64)    { b.log = append(b.log, "PostSums") }
func (b spyBlock) CollectSums([]float64) { b.log = append(b.log, "CollectSums") }

// TestDirectionFollowsTheOperator: Direction sweeps when — and only when
// — the operator offers its rows to a serial workspace that is not a row
// block; a pooled workspace and a row block make the whole-vector calls
// they always made, in the order they made them. All three leave the
// same bits: the sweep is not a different computation.
func TestDirectionFollowsTheOperator(t *testing.T) {
	const n, steps = 10240, 3 // two and a half granules
	d, ok := sparse.TuneMulVec(sparse.TridiagToeplitz(n, 2, -1)).(*sparse.DIA)
	if !ok {
		t.Fatal("the tridiagonal operator is not tuned to diagonal storage")
	}
	b := vec.New(n)
	vec.Fill(b, 1)
	pool := vec.NewPool(2)
	defer pool.Close()

	var want []float64
	for _, c := range []struct {
		name    string
		pool    *vec.Pool
		block   bool
		perStep string
	}{
		{"serial", nil, false, "MulRows MulRows MulRows"},
		{"pooled", pool, false, "MulVec"},
		{"row block", nil, true, "MulVec PostSums CollectSums"},
	} {
		spy := &spyOp{DIA: d}
		var op sparse.Matrix = spy
		if c.block {
			op = spyBlock{spy}
		}
		k := &dirKernel{}
		var res Result
		if err := Solve(k, NewWorkspace(n, c.pool), op, b, Config{MaxIter: steps}, &res); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		calls := strings.Join(spy.log, " ")
		if c.block { // ‖b‖, summed over the blocks before the first step
			calls = strings.TrimPrefix(calls, "PostSums CollectSums ")
		}
		if wantCalls := strings.TrimSpace(strings.Repeat(c.perStep+" ", steps)); calls != wantCalls {
			t.Errorf("%s: the operator saw %q, want %q", c.name, calls, wantCalls)
		}
		if res.Stats.MatVecs != steps || res.Stats.InnerProducts != steps || res.Stats.VectorUpdates != 0 {
			t.Errorf("%s: %v; Direction counts one product and one inner product", c.name, res.Stats)
		}
		if want == nil {
			want = append(want, k.pap...)
		}
		for i := range want {
			if math.Float64bits(k.pap[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: step %d returned %x, the sweep %x", c.name, i, math.Float64bits(k.pap[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestDirectionPhaseClock: with timing on, each part of the sweep is
// charged to a phase — the update of the first lead elements to update,
// each granule's rows, with the update the row kernel carries inside
// them, to spmv, the leaf dots to reduction — one clock reading per part
// and one to start; the whole-vector form reads it twice a call as
// before. With timing off there is no clock to read.
func TestDirectionPhaseClock(t *testing.T) {
	const n, steps = 10240, 4
	a := sparse.TridiagToeplitz(n, 2, -1)
	b := vec.New(n)
	vec.Fill(b, 1)
	for _, c := range []struct {
		name  string
		op    sparse.Matrix
		reads int
		us    [NumPhases]float64
	}{
		// Reach 1, so a lead of one trip: the sweep updates 32
		// elements, then each of the three granules' rows carry the rest.
		{"sweep", a, 1 + 7, [NumPhases]float64{PhaseSpMV: 3, PhaseReduction: 3, PhaseUpdate: 1}},
		{"whole", struct{ sparse.Matrix }{sparse.TuneMulVec(a)}, 2 * 3, [NumPhases]float64{PhaseSpMV: 1, PhaseReduction: 1, PhaseUpdate: 1}},
	} {
		ws := NewWorkspace(n, nil)
		var res Result
		if err := Solve(&dirKernel{}, ws, c.op, b, Config{MaxIter: steps}, &res); err != nil {
			t.Fatal(err)
		}
		if ws.now != nil || !res.Phases.Empty() {
			t.Fatalf("%s: phases observed with timing off", c.name)
		}
		reads := 0
		ws.now = func() time.Duration { reads++; return time.Duration(reads) * time.Microsecond }
		if err := Solve(&dirKernel{}, ws, c.op, b, Config{MaxIter: steps}, &res); err != nil {
			t.Fatal(err)
		}
		if reads != steps*c.reads {
			t.Errorf("%s: clock read %d times over %d steps, want %d", c.name, reads, steps, steps*c.reads)
		}
		charged := 0.0
		for p, us := range c.us {
			if got := res.Phases[p].SumUS; got != us*steps {
				t.Errorf("%s: phase %s charged %g us, want %g", c.name, Phase(p).Name(), got, us*steps)
			}
			charged += res.Phases[p].SumUS
		}
		// The sweep charges every tick after its start reading: its parts
		// sum to the call.
		if c.name == "sweep" && charged != float64(reads-steps) {
			t.Errorf("sweep: %g us charged of %d ticks after the start readings", charged, reads-steps)
		}
	}
}

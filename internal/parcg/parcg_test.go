package parcg

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vrcg/internal/engine"
	"vrcg/internal/machine"
	"vrcg/sparse"
)

// TestPartitionHaloSmallForStencil: a row-partitioned 2D stencil needs
// only one ghost layer, so a halo message is at most ~grid-side words.
func TestPartitionHaloSmallForStencil(t *testing.T) {
	side := 12
	pt := NewPartition(sparse.Poisson2D(side), 4)
	for _, msg := range pt.halo {
		if msg.Words > side+2 {
			t.Fatalf("halo message %+v for side %d", msg, side)
		}
	}
	if d := pt.HaloDegree(); d != 2 {
		t.Fatalf("interior blocks receive from %d processors, want 2", d)
	}
}

// TestPartitionOwner: the row blocks tile [0, n) in processor order, and
// owner(g) is the processor whose block holds g — for every n up to 40,
// with P from 1 up to n.
func TestPartitionOwner(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for p := 1; p <= n; p++ {
			pt := NewPartition(sparse.TridiagToeplitz(n, 4, -1), p)
			if pt.lo(0) != 0 || pt.lo(p) != n {
				t.Fatalf("n=%d P=%d: blocks span [%d,%d)", n, p, pt.lo(0), pt.lo(p))
			}
			for g := 0; g < n; g++ {
				o := pt.owner(g)
				if o < 0 || o >= p || g < pt.lo(o) || g >= pt.lo(o+1) {
					t.Fatalf("n=%d P=%d: owner(%d) = %d, block [%d,%d)", n, p, g, o, pt.lo(o), pt.lo(o+1))
				}
			}
			m := machine.New(machine.Config{P: p, FlopTime: 1})
			pt.Sweep(m, 1)
			if got := m.Stats().Flops; got != int64(n) {
				t.Fatalf("n=%d P=%d: a one-flop sweep charged %d flops, want %d", n, p, got, n)
			}
		}
	}
}

// Property: the partition's shape is the operator's — every stored
// nonzero counted on the processor owning its row, and one product's
// messages exactly the distinct off-block columns each processor's rows
// read, grouped by the processor that owns them.
func TestPropPartitionShape(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		n := 30
		p := int(pRaw)%n + 1
		a := sparse.RandomSPD(n, 4, seed)
		pt := NewPartition(a, p)
		var want []machine.Message
		total := 0
		for dst := 0; dst < p; dst++ {
			lo, hi := dst*n/p, (dst+1)*n/p
			need := map[int]map[int]bool{}
			nnz := 0
			for r := lo; r < hi; r++ {
				a.ScanRow(r, func(c int, _ float64) {
					nnz++
					if c < lo || c >= hi {
						src := 0
						for (src+1)*n/p <= c {
							src++
						}
						if need[src] == nil {
							need[src] = map[int]bool{}
						}
						need[src][c] = true
					}
				})
			}
			if pt.nnz[dst] != nnz {
				return false
			}
			total += nnz
			for src := 0; src < p; src++ {
				if len(need[src]) > 0 {
					want = append(want, machine.Message{From: src, To: dst, Words: len(need[src])})
				}
			}
		}
		return total == a.NNZ() && slices.Equal(pt.halo, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAllocsBounded: a replay builds its partition once and then
// charges arithmetic on it — no allocation per product or per iteration,
// so the count grows with neither n nor P. (The data-carrying replay
// this replaced made 225,272 here at P = 64.)
func TestReplayAllocsBounded(t *testing.T) {
	a := sparse.Poisson2D(64)
	for _, p := range []int{64, 4096} {
		res := &engine.Result{Iterations: 119, Converged: true}
		allocs := testing.AllocsPerRun(1, func() {
			Replay(latencyCfg(p), a, "parcg-cg", false, res)
		})
		if allocs > 5000 {
			t.Errorf("P=%d: replaying parcg-cg for 119 iterations allocated %.0f times, want <= 5000", p, allocs)
		}
	}
}

// latencyProblem is the workload for the latency-dominated machine
// experiments: a banded SPD system whose halo is two neighbours.
func latencyProblem(n int) *sparse.CSR {
	return sparse.TridiagToeplitz(n, 4.2, -1)
}

// latencyCfg is the latency-dominated machine of the cost-model claims:
// alpha large, flops cheap.
func latencyCfg(p int) machine.Config {
	return machine.Config{P: p, Alpha: 64, Beta: 0.01, FlopTime: 0.001}
}

// replayed charges method's schedule for a synthetic solve shape. The
// charges are data-independent, so the cost-model claims below need no
// solve: only the iteration count, the exit shape and k enter.
func replayed(cfg machine.Config, a *sparse.CSR, method string, blocking bool, iters, k int) *engine.Result {
	res := &engine.Result{Iterations: iters, Converged: true, K: k}
	Replay(cfg, a, method, blocking, res)
	return res
}

// The headline machine experiment: with latency-dominated communication
// and enough look-ahead, VRCG's per-iteration time loses the log(P)
// reduction term that CG pays twice per iteration.
func TestVRCGHidesReductionLatency(t *testing.T) {
	a, cfg := latencyProblem(4096), latencyCfg(256)
	cgRate := replayed(cfg, a, "parcg-cg", false, 48, 0).PerIterTime()
	vrRate := replayed(cfg, a, "parcg", false, 48, 8).PerIterTime()
	if vrRate >= cgRate {
		t.Fatalf("VRCG per-iteration time %.1f not below CG %.1f", vrRate, cgRate)
	}
	// CG pays ~2 allreduces of ~log2(256)=8 rounds * alpha=64 ~ 1024 per
	// iteration; VRCG should cut the reduction share substantially.
	if vrRate > 0.7*cgRate {
		t.Fatalf("VRCG %.1f did not substantially beat CG %.1f", vrRate, cgRate)
	}
}

func TestPipeCGBetweenCGAndVRCGOnMachine(t *testing.T) {
	a, cfg := latencyProblem(4096), latencyCfg(256)
	cg := replayed(cfg, a, "parcg-cg", false, 48, 0).PerIterTime()
	pipe := replayed(cfg, a, "parcg-pipe", false, 48, 0).PerIterTime()
	vr := replayed(cfg, a, "parcg", false, 48, 8).PerIterTime()
	if !(vr < pipe && pipe < cg) {
		t.Fatalf("expected VRCG < PipeCG < CG, got %.1f, %.1f, %.1f", vr, pipe, cg)
	}
}

func TestBlockingVsPipelinedAnchors(t *testing.T) {
	// s-step semantics (blocking anchor reductions) must be slower than
	// the paper's pipelined anchors at equal k on a latency-bound
	// machine. The blocking stall appears once per k-block, so compare
	// total elapsed parallel time — a per-iteration median would hide
	// the per-block wait by design.
	a, cfg := latencyProblem(4096), latencyCfg(256)
	pipelined := replayed(cfg, a, "parcg", false, 48, 6).TotalTime()
	blocking := replayed(cfg, a, "parcg", true, 48, 6).TotalTime()
	if pipelined >= blocking {
		t.Fatalf("pipelined total %.1f not below blocking total %.1f", pipelined, blocking)
	}
}

func TestResultPerIterTime(t *testing.T) {
	// Uniform increments: any window gives the increment.
	r := &engine.Result{Clocks: []float64{10, 20, 30, 40, 50, 60, 70, 80}}
	if got := r.PerIterTime(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("PerIterTime = %v, want 10", got)
	}
	empty := &engine.Result{}
	if !math.IsNaN(empty.PerIterTime()) {
		t.Fatal("empty trajectory should give NaN")
	}
}

func TestAutoKTracksReductionToLocalRatio(t *testing.T) {
	// k must cover ~log2(P) reduction rounds with iterations whose halo
	// pays the same alpha: for a 2-neighbor halo and P=256 (8 rounds)
	// the latency-dominated ratio is ~4, so k in the 4..8 range across
	// a wide alpha sweep.
	a := latencyProblem(4096)
	pt := NewPartition(a, 256)
	for _, alpha := range []float64{1, 16, 256, 2048} {
		cfg := machine.Config{P: 256, Alpha: alpha, Beta: 0.01, FlopTime: 0.001}
		k := AutoK(cfg, pt, 32)
		if k < 3 || k > 10 {
			t.Fatalf("alpha=%v: AutoK gave k=%d outside the expected band", alpha, k)
		}
	}
	// Expensive local flops shrink the needed look-ahead to the minimum.
	slowFlops := machine.Config{P: 256, Alpha: 1, Beta: 0.01, FlopTime: 10}
	if k := AutoK(slowFlops, pt, 32); k != 1 {
		t.Fatalf("compute-bound machine should give k=1, got %d", k)
	}
}

func TestAutoKClampsAndMinimum(t *testing.T) {
	a := latencyProblem(256)
	pt := NewPartition(a, 8)
	// Negligible latency: smallest k suffices.
	cheap := machine.Config{P: 8, Alpha: 0.001, Beta: 0.0001, FlopTime: 1}
	if k := AutoK(cheap, pt, 16); k != 1 {
		t.Fatalf("cheap communication should give k=1, got %d", k)
	}
	// Bandwidth-dominated reductions grow with the batch width as fast
	// as the block grows with k, so no k ever covers them: clamped at
	// maxK. (Pure latency is always eventually covered because the halo
	// pays alpha too.)
	expensive := machine.Config{P: 8, Alpha: 0, Beta: 1, FlopTime: 1e-9}
	if k := AutoK(expensive, pt, 5); k != 5 {
		t.Fatalf("bandwidth-bound reduction should clamp to maxK=5, got %d", k)
	}
	if k := AutoK(expensive, pt, 0); k != 1 {
		t.Fatalf("maxK < 1 should clamp to 1, got %d", k)
	}
}

func TestAutoKChoiceActuallyHides(t *testing.T) {
	// Charge the schedule at the AutoK choice and verify per-iteration
	// time is close to the reduction-free floor (no promotion stalls).
	a, cfg := latencyProblem(4096), latencyCfg(256)
	k := AutoK(cfg, NewPartition(a, cfg.P), 12)
	vr := replayed(cfg, a, "parcg", false, 48, k).PerIterTime()
	cg := replayed(cfg, a, "parcg-cg", false, 48, 0).PerIterTime()
	if vr >= 0.5*cg {
		t.Fatalf("AutoK(k=%d) rate %.1f did not substantially beat CG %.1f", k, vr, cg)
	}
}

// TestReplayGolden pins the three cost schedules to the clocks and
// communication totals the retired simulated-machine solvers (which
// solved and charged in one pass) produced on real solves: cfg
// {Alpha:64, Beta:0.01, FlopTime:0.001}, rhs vec.Random(b, 3), Tol 1e-6,
// MaxIter 120 for the first twelve rows. The last rows pin the other
// exit shapes: an unconverged stop at MaxIter 10, and a convergence
// exit on an anchor boundary (Tol 1e-3, 40 iterations at k=2).
//
// The six look-ahead rows longer than 16 iterations were re-pinned when
// the schedule gained its regrowth (regrowEvery: 4k = 8 products with
// their halo exchanges at iterations 16, 32, 48, 64). Final clocks and
// message/word totals rose by exactly that — 4 regrowths × 8 products
// × 14 halo messages = 448 at P=8 over 65 iterations, 2 regrowths over
// 40 — and the per-iteration medians, which never land on an anchor,
// did not move. The 10- and 11-iteration rows end before the first one.
func TestReplayGolden(t *testing.T) {
	tridiag := sparse.TridiagToeplitz(4096, 4.2, -1)
	poisson := sparse.Poisson2D(24)
	for _, g := range []struct {
		name      string
		a         *sparse.CSR
		p         int
		method    string
		blocking  bool
		k         int
		iters     int
		converged bool

		perIter, final  float64
		messages, words int
	}{
		{"tridiag4096/P256/cg", tridiag, 256, "parcg-cg", false, 0, 11, true, 1152.4440000000077, 13189.004000000057, 52714, 52714},
		{"tridiag4096/P256/pipe", tridiag, 256, "parcg-pipe", false, 0, 11, true, 512.4360000000006, 5764.966000000028, 31206, 55782},
		{"tridiag4096/P256/vrcg-k2", tridiag, 256, "parcg", false, 2, 11, true, 129.48899999999753, 4115.556000000013, 24544, 344032},
		{"tridiag4096/P256/vrcg-k2-blocking", tridiag, 256, "parcg", true, 2, 11, true, 643.865, 5659.316000000032, 24544, 344032},
		{"poisson24/P8/cg", poisson, 8, "parcg-cg", false, 0, 65, true, 513.7359999999935, 33585.01699999987, 4054, 24984},
		{"poisson24/P8/pipe", poisson, 8, "parcg-pipe", false, 0, 65, true, 193.2220000000043, 12688.66600000019, 2522, 25680},
		{"poisson24/P8/vrcg-k2", poisson, 8, "parcg", false, 2, 65, true, 134.4029999999916, 13767.707000000246, 2268, 55704},
		{"poisson24/P8/vrcg-k2-blocking", poisson, 8, "parcg", true, 2, 65, true, 327.53400000000966, 19958.075000000266, 2268, 55704},
		{"poisson24/P7/cg", poisson, 7, "parcg-cg", false, 0, 65, true, 641.9619999999959, 41983.74099999954, 2614, 20554},
		{"poisson24/P7/pipe", poisson, 7, "parcg-pipe", false, 0, 65, true, 257.41799999999785, 16861.546000000028, 1728, 21144},
		{"poisson24/P7/vrcg-k2", poisson, 7, "parcg", false, 2, 65, true, 135.35999999997148, 13942.995999999648, 1714, 41878},
		{"poisson24/P7/vrcg-k2-blocking", poisson, 7, "parcg", true, 2, 65, true, 392.72799999999006, 22185.316000000388, 1714, 41878},

		{"poisson24/P8/cg-unconverged", poisson, 8, "parcg-cg", false, 0, 10, false, 513.7360000000017, 5329.537000000017, 644, 3864},
		{"poisson24/P8/pipe-unconverged", poisson, 8, "parcg-pipe", false, 0, 10, false, 193.22199999999975, 2061.4559999999965, 418, 4224},
		{"poisson24/P8/vrcg-k2-unconverged", poisson, 8, "parcg", false, 2, 10, false, 132.62699999999586, 2356.965999999991, 378, 8328},
		{"poisson24/P8/vrcg-k2-blocking-unconverged", poisson, 8, "parcg", true, 2, 10, false, 229.1924999999958, 3129.5379999999777, 378, 8328},
		{"poisson24/P8/vrcg-k2-anchor-exit", poisson, 8, "parcg", false, 2, 40, true, 132.50699999999665, 8392.656000000083, 1406, 34152},
		{"poisson24/P8/vrcg-k2-blocking-anchor-exit", poisson, 8, "parcg", true, 2, 40, true, 229.19249999999693, 12067.617000000102, 1406, 34152},
	} {
		t.Run(g.name, func(t *testing.T) {
			res := &engine.Result{Iterations: g.iters, Converged: g.converged, K: g.k}
			Replay(latencyCfg(g.p), g.a, g.method, g.blocking, res)
			if len(res.Clocks) != g.iters {
				t.Fatalf("%d clocks for %d iterations", len(res.Clocks), g.iters)
			}
			near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
			if !near(res.PerIterTime(), g.perIter) {
				t.Errorf("per-iteration time %v, want %v", res.PerIterTime(), g.perIter)
			}
			if !near(res.TotalTime(), g.final) {
				t.Errorf("final clock %v, want %v", res.TotalTime(), g.final)
			}
			if res.Machine.Messages != g.messages || res.Machine.Words != g.words {
				t.Errorf("messages/words %d/%d, want %d/%d",
					res.Machine.Messages, res.Machine.Words, g.messages, g.words)
			}
		})
	}
}

// TestGershgorinOnTheBand: the bound taken through the tuned band's
// ScanRow — which parcg now finds on run.A, leaving a released CSR
// released — is the one the CSR's rows give, bit for bit: on Poisson, a
// variable-coefficient grid, and bands that store an explicit +0 (a
// hole to the band, and nothing to a sum of |v|) and a −0 (kept).
func TestGershgorinOnTheBand(t *testing.T) {
	varcoeff, err := sparse.VarCoeffPoisson2D(24, sparse.JumpCoefficient(50))
	if err != nil {
		t.Fatal(err)
	}
	withValue := func(a *sparse.CSR, every int, v float64) *sparse.CSR {
		c := a.CloneValues()
		vals := slices.Clone(c.Values())
		for i := 0; i < len(vals); i += every {
			vals[i] = v
		}
		c.SetValues(vals)
		return c
	}
	for name, a := range map[string]*sparse.CSR{
		"poisson2d-64":  sparse.Poisson2D(64),
		"poisson3d-12":  sparse.Poisson3D(12),
		"varcoeff-24":   varcoeff,
		"explicit-zero": withValue(sparse.Poisson2D(20), 7, 0),
		"negative-zero": withValue(sparse.Poisson2D(20), 5, math.Copysign(0, -1)),
	} {
		want := gershgorin(&engine.Run{A: a})
		d, ok := sparse.TuneMulVec(a).(*sparse.DIA)
		if !ok {
			t.Fatalf("%s is not tuned to diagonal storage", name)
		}
		if got := gershgorin(&engine.Run{A: d}); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: bound %v through the band, %v through the CSR", name, got, want)
		}
	}
}

// TestScalingFlopsFollowTheDivisions: the division by the Gershgorin
// bound is counted where it runs, one update and n flops a division. An
// unscaled solve (NoScaling) carries no division term; a scaled one, run
// through the same schedule, carries one for each product of the
// families — every product but the exit's — and one for the start-up
// residual.
func TestScalingFlopsFollowTheDivisions(t *testing.T) {
	a := sparse.Poisson2D(12)
	n := int64(a.Dim())
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	solveStats := func(noScaling bool) engine.Stats {
		res, err := engine.SolveOnce(NewLookaheadKernel(), a, b, engine.Config{K: 2, MaxIter: 10, Tol: 1e-30, NoScaling: noScaling})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 10 || res.Replacements != 0 || res.FallbackDots != 0 {
			t.Fatalf("noScaling=%v: %d iterations, %d restarts, %d fallbacks: not the plain schedule",
				noScaling, res.Iterations, res.Replacements, res.FallbackDots)
		}
		return res.Stats
	}
	// work is the flops of the counts at 2·nnz a product and 2n an inner
	// product or update: a division, n flops, is n short of its 2n.
	work := func(s engine.Stats) int64 {
		return int64(s.MatVecs)*2*int64(a.NNZ()) + 2*n*int64(s.InnerProducts+s.VectorUpdates)
	}
	plain, scaled := solveStats(true), solveStats(false)
	if plain.Flops != work(plain) {
		t.Errorf("unscaled: %d flops, the counts make %d: a division charged that never ran", plain.Flops, work(plain))
	}
	if scaled.MatVecs != plain.MatVecs || scaled.InnerProducts != plain.InnerProducts {
		t.Fatalf("the schedules differ: scaled %+v, unscaled %+v", scaled, plain)
	}
	// The families' products are all but the exit's; with the start-up
	// residual's division, as many divisions as products.
	divisions := scaled.VectorUpdates - plain.VectorUpdates
	if divisions != scaled.MatVecs {
		t.Errorf("scaled: %d divisions counted, %d ran", divisions, scaled.MatVecs)
	}
	if scaled.Flops != work(scaled)-n*int64(divisions) {
		t.Errorf("scaled: %d flops, want %d: n a division", scaled.Flops, work(scaled)-n*int64(divisions))
	}
}

package vec

import (
	"math"
	"sort"
	"time"
)

// Calibration reports the measured serial/parallel crossover for each
// pooled opcode: the smallest operand size (elements for vector ops,
// nonzeros for csrmulvec, rows for rowrange) at which the pooled kernel
// beat the serial one on this machine. An opcode that never won — the
// normal result on a single-core host — reports math.MaxInt64, meaning
// "always serial".
type Calibration struct {
	Workers int
	Cutoffs map[string]int64
}

// Calibrate measures, once per pool, where each pooled kernel starts
// beating its serial form on the current machine, and installs those
// crossovers as the pool's per-opcode cutoffs (replacing the
// conservative static defaults). Subsequent calls return the stored
// report without re-measuring.
//
// The measurement runs each kernel serially and force-parallel over a
// geometric ladder of sizes (8Ki..1Mi elements; nonzeros for SpMV) and
// takes the best of several timed trials; the cutoff is the first size
// where the pooled form wins by a clear margin. The whole sweep costs
// on the order of 100ms, so it belongs at process startup (servers,
// benchmark harnesses), not in per-solve paths. Calibration only moves
// the serial/parallel dispatch point — pooled reductions are bitwise
// identical to serial at every size, so cutoff placement can never
// change numerical results.
func (p *Pool) Calibrate() Calibration {
	p.calOnce.Do(func() {
		p.cal = p.calibrate()
		for op := 1; op < nOps; op++ {
			p.cut[op].Store(p.cal.Cutoffs[opNames[op]])
		}
	})
	return p.cal
}

// winMargin is how decisively the pooled kernel must beat serial before
// a size counts as the crossover: losing a near-tie to measurement
// noise costs integer factors below the true crossover, while requiring
// a 10% win merely delays parallelism to a size where it clearly pays.
const winMargin = 0.9

func (p *Pool) calibrate() Calibration {
	cal := Calibration{Workers: p.workers, Cutoffs: make(map[string]int64, nOps-1)}
	never := func() {
		for op := 1; op < nOps; op++ {
			cal.Cutoffs[opNames[op]] = math.MaxInt64
		}
	}
	if p.workers < 2 || p.closed.Load() {
		never()
		return cal
	}

	const maxN = 1 << 20
	sizes := make([]int, 0, 8)
	for n := 1 << 13; n <= maxN; n <<= 1 {
		sizes = append(sizes, n)
	}

	// Deterministic non-trivial operands (values do not affect timing,
	// but keep them finite and mixed-sign).
	x := make([]float64, maxN)
	y := make([]float64, maxN)
	z := make([]float64, maxN)
	w := make([]float64, maxN)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(int64(rng>>11))/float64(1<<52) - 0.5
	}
	for i := range x {
		x[i], y[i], z[i], w[i] = next(), next(), next(), next()
	}
	var sink float64
	dots, part := make([]float64, 4), make([]float64, 4*nblocks(maxN))
	// Tiny coefficients keep the AxpyBlock probe's accumulating
	// destinations finite across arbitrarily many timing reps.
	tinyCoef := [4]float64{1e-9, -1e-9, 1e-9, -1e-9}

	probes := []struct {
		op     opcode
		serial func(n int)
		pooled func(n int)
	}{
		{opDot,
			func(n int) { sink = Dot(x[:n], y[:n]) },
			func(n int) { sink = p.Dot(x[:n], y[:n]) }},
		{opDotPair,
			func(n int) { sink, _ = DotPair(x[:n], y[:n], z[:n]) },
			func(n int) { sink, _ = p.DotPair(x[:n], y[:n], z[:n]) }},
		{opAxpy,
			func(n int) { Axpy(1e-9, x[:n], y[:n]) },
			func(n int) { p.Axpy(1e-9, x[:n], y[:n]) }},
		{opXpay,
			func(n int) { Xpay(x[:n], 0.5, y[:n]) },
			func(n int) { p.Xpay(x[:n], 0.5, y[:n]) }},
		{opMulElem,
			func(n int) { MulElem(z[:n], x[:n], y[:n]) },
			func(n int) { p.MulElem(z[:n], x[:n], y[:n]) }},
		{opFusedCG,
			func(n int) { sink = FusedCGUpdate(1e-9, x[:n], y[:n], z[:n], w[:n]) },
			func(n int) { sink = p.FusedCGUpdate(1e-9, x[:n], y[:n], z[:n], w[:n]) }},
		{opDotBatch,
			func(n int) { DotBatch(x[:n], []Vector{y[:n], z[:n], w[:n], y[:n]}, dots, part) },
			func(n int) { p.DotBatch(x[:n], []Vector{y[:n], z[:n], w[:n], y[:n]}, dots, part) }},
		{opDotBlock,
			func(n int) { DotBlock([]Vector{x[:n], y[:n]}, []Vector{z[:n], w[:n]}, dots, part) },
			func(n int) { p.DotBlock([]Vector{x[:n], y[:n]}, []Vector{z[:n], w[:n]}, dots, part) }},
		{opAxpyBlock,
			func(n int) { AxpyBlock(tinyCoef[:], []Vector{x[:n], y[:n]}, []Vector{z[:n], w[:n]}) },
			func(n int) { p.AxpyBlock(tinyCoef[:], []Vector{x[:n], y[:n]}, []Vector{z[:n], w[:n]}) }},
	}
	for _, pr := range probes {
		cal.Cutoffs[opNames[pr.op]] = p.crossover(pr.op, sizes, pr.serial, pr.pooled)
	}

	// SpMV probes share a 5-band synthetic matrix: uniform rows, so an
	// equal row split is nnz-balanced, and sub-prefixes of the arrays
	// are valid smaller systems.
	const maxRows = 1 << 17
	rowPtr := make([]int, maxRows+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < maxRows; i++ {
		for _, j := range [5]int{i - 2, i - 1, i, i + 1, i + 2} {
			if j >= 0 && j < maxRows {
				colIdx = append(colIdx, j)
				vals = append(vals, next())
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	serialSpMV := func(rows int) {
		for i := 0; i < rows; i++ {
			var s float64
			for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
				s += vals[q] * x[q%maxN]
			}
			w[i] = s
		}
	}
	bounds := make([]int, p.workers+1)
	pooledSpMV := func(rows int) {
		parts := p.workers
		if parts > rows {
			parts = rows
		}
		b := bounds[:parts+1]
		for c := 0; c <= parts; c++ {
			b[c] = c * rows / parts
		}
		if !p.CSRMulVec(b, rowPtr[:rows+1], colIdx[:rowPtr[rows]], vals[:rowPtr[rows]], w[:rows], x) {
			serialSpMV(rows)
		}
	}
	// csrmulvec sizes are nonzeros: map each nnz ladder size to rows.
	nnzSizes := make([]int, 0, len(sizes))
	rowsFor := make(map[int]int)
	for _, s := range sizes {
		r := sort.SearchInts(rowPtr, s)
		if r > maxRows {
			break
		}
		nnzSizes = append(nnzSizes, s)
		rowsFor[s] = r
	}
	cut := p.crossover(opCSRMulVec, nnzSizes,
		func(nnz int) { serialSpMV(rowsFor[nnz]) },
		func(nnz int) { pooledSpMV(rowsFor[nnz]) })
	cal.Cutoffs[opNames[opCSRMulVec]] = cut
	// rowrange kernels do comparable per-row work; reuse the SpMV
	// crossover converted from nonzeros to rows (5 nnz per band row).
	// The multi-vector SpMV does strictly more work per row than the
	// single-vector form at the same nnz, so it crosses over no later —
	// reuse the measured single-vector crossover directly.
	if cut == math.MaxInt64 {
		cal.Cutoffs[opNames[opRowRange]] = math.MaxInt64
		cal.Cutoffs[opNames[opCSRMulVecs]] = math.MaxInt64
	} else {
		cal.Cutoffs[opNames[opRowRange]] = cut / 5
		cal.Cutoffs[opNames[opCSRMulVecs]] = cut
	}

	_ = sink
	return cal
}

// crossover times serial vs force-parallel forms of one opcode over the
// size ladder and returns the first size where pooled wins by winMargin,
// or math.MaxInt64 if it never does. The op's cutoff is forced to 1 for
// the duration so the pooled form actually dispatches.
func (p *Pool) crossover(op opcode, sizes []int, serial, pooled func(n int)) int64 {
	saved := p.cut[op].Load()
	p.cut[op].Store(1)
	defer p.cut[op].Store(saved)
	for _, n := range sizes {
		ts := bestOf(func() { serial(n) })
		tp := bestOf(func() { pooled(n) })
		if float64(tp) <= winMargin*float64(ts) {
			return int64(n)
		}
	}
	return math.MaxInt64
}

// bestOf returns the minimum per-call time over a few auto-repped
// trials — the standard defense against scheduler noise when timing
// microsecond kernels.
func bestOf(f func()) time.Duration {
	f() // warm caches and worker wakeup paths
	best := time.Duration(math.MaxInt64)
	for trial := 0; trial < 3; trial++ {
		reps := 1
		for {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				f()
			}
			d := time.Since(t0)
			if d >= 100*time.Microsecond || reps >= 1<<22 {
				if per := d / time.Duration(reps); per < best {
					best = per
				}
				break
			}
			reps <<= 1
		}
	}
	return best
}

// Package parcg holds the paper's three schedules — blocking CG,
// pipelined CG, and the anchored look-ahead recurrence — in the two
// forms the repository needs, each exactly once: real-parallel
// engine.Kernels that do the numerics with the reductions overlapped on
// background goroutines (kernels.go), and the schedules' cost on the
// simulated machine (package machine, collectives from package
// collective), charged by Replay for the iteration count a solve
// performed (replay.go). This file is the block-partitioned vector and
// matrix primitives the replay charges through; they operate on real
// data, so each is testable against its serial counterpart.
package parcg

import (
	"fmt"

	"vrcg/internal/machine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// Dist is an n-vector block-partitioned across P processors: processor i
// owns the contiguous index range [Lo(i), Hi(i)).
type Dist struct {
	n     int
	p     int
	parts [][]float64
}

// NewDist returns a zero distributed vector of length n over p parts.
func NewDist(n, p int) *Dist {
	if n < 1 || p < 1 {
		panic(fmt.Sprintf("parcg: NewDist(%d, %d)", n, p))
	}
	d := &Dist{n: n, p: p, parts: make([][]float64, p)}
	for i := 0; i < p; i++ {
		d.parts[i] = make([]float64, d.Hi(i)-d.Lo(i))
	}
	return d
}

// Scatter distributes a full vector.
func Scatter(x vec.Vector, p int) *Dist {
	d := NewDist(len(x), p)
	for i := 0; i < p; i++ {
		copy(d.parts[i], x[d.Lo(i):d.Hi(i)])
	}
	return d
}

// Len returns the global length.
func (d *Dist) Len() int { return d.n }

// Parts returns the number of blocks.
func (d *Dist) Parts() int { return d.p }

// Lo returns the first global index owned by processor i.
func (d *Dist) Lo(i int) int { return i * d.n / d.p }

// Hi returns one past the last global index owned by processor i.
func (d *Dist) Hi(i int) int { return (i + 1) * d.n / d.p }

// Owner returns the processor owning global index g.
func (d *Dist) Owner(g int) int {
	// Inverse of the block formula; scan is fine for the block count in
	// play, but a direct computation keeps it O(1).
	i := g * d.p / d.n
	for d.Lo(i) > g {
		i--
	}
	for d.Hi(i) <= g {
		i++
	}
	return i
}

// At returns the globally indexed component (test/diagnostic use).
func (d *Dist) At(g int) float64 {
	i := d.Owner(g)
	return d.parts[i][g-d.Lo(i)]
}

// Gather reassembles the full vector.
func (d *Dist) Gather() vec.Vector {
	out := vec.New(d.n)
	for i := 0; i < d.p; i++ {
		copy(out[d.Lo(i):d.Hi(i)], d.parts[i])
	}
	return out
}

func (d *Dist) mustMatch(o *Dist) {
	if d.n != o.n || d.p != o.p {
		panic(fmt.Sprintf("parcg: shape mismatch (%d/%d vs %d/%d)", d.n, d.p, o.n, o.p))
	}
}

// Axpy computes y += a*x blockwise, charging 2 flops per component.
func Axpy(m *machine.Machine, a float64, x, y *Dist) {
	x.mustMatch(y)
	for i := range y.parts {
		xp, yp := x.parts[i], y.parts[i]
		for j := range yp {
			yp[j] += a * xp[j]
		}
		m.Compute(i, 2*len(yp))
	}
}

// Xpay computes y = x + a*y blockwise.
func Xpay(m *machine.Machine, x *Dist, a float64, y *Dist) {
	x.mustMatch(y)
	for i := range y.parts {
		xp, yp := x.parts[i], y.parts[i]
		for j := range yp {
			yp[j] = xp[j] + a*yp[j]
		}
		m.Compute(i, 2*len(yp))
	}
}

// Scale computes x *= a blockwise.
func Scale(m *machine.Machine, a float64, x *Dist) {
	for i := range x.parts {
		xp := x.parts[i]
		for j := range xp {
			xp[j] *= a
		}
		m.Compute(i, len(xp))
	}
}

// LocalDotPartials returns the per-processor partial sums of <x, y>,
// charging the multiply-add sweep. Combine with collective.AllreduceSum
// (blocking) or collective.IAllreduceVec (pipelined).
func LocalDotPartials(m *machine.Machine, x, y *Dist) []float64 {
	x.mustMatch(y)
	out := make([]float64, x.p)
	for i := range x.parts {
		var s float64
		xp, yp := x.parts[i], y.parts[i]
		for j := range xp {
			s += xp[j] * yp[j]
		}
		out[i] = s
		m.Compute(i, 2*len(xp))
	}
	return out
}

// DistMatrix is a CSR operator with rows partitioned to match a Dist
// layout. Construction precomputes the halo: for each processor pair
// (dst, src), the global column indices dst needs from src's block
// during a matvec. For the stencil operators the halo is the familiar
// ghost layer; for general CSR it is whatever the sparsity demands.
type DistMatrix struct {
	a    *sparse.CSR
	p    int
	lay  *Dist // layout prototype (no data of interest)
	need [][][]int
	// haloWords[dst][src] = len(need[dst][src]).
}

// NewDistMatrix partitions a over p processors by contiguous row blocks.
func NewDistMatrix(a *sparse.CSR, p int) *DistMatrix {
	if p < 1 {
		panic("parcg: NewDistMatrix needs p >= 1")
	}
	dm := &DistMatrix{a: a, p: p, lay: NewDist(a.Dim(), p)}
	dm.need = make([][][]int, p)
	for dst := 0; dst < p; dst++ {
		seen := map[int]bool{}
		needFrom := make([][]int, p)
		for r := dm.lay.Lo(dst); r < dm.lay.Hi(dst); r++ {
			a.ScanRow(r, func(c int, _ float64) {
				if c < dm.lay.Lo(dst) || c >= dm.lay.Hi(dst) {
					if !seen[c] {
						seen[c] = true
						src := dm.lay.Owner(c)
						needFrom[src] = append(needFrom[src], c)
					}
				}
			})
		}
		dm.need[dst] = needFrom
	}
	return dm
}

// Dim returns the operator order.
func (dm *DistMatrix) Dim() int { return dm.a.Dim() }

// P returns the processor count of the partition.
func (dm *DistMatrix) P() int { return dm.p }

// HaloDegree returns the largest number of distinct processors any one
// processor must receive from during a matvec — the per-iteration
// message count that multiplies the latency term.
func (dm *DistMatrix) HaloDegree() int {
	mx := 0
	for dst := range dm.need {
		cnt := 0
		for src := range dm.need[dst] {
			if len(dm.need[dst][src]) > 0 {
				cnt++
			}
		}
		if cnt > mx {
			mx = cnt
		}
	}
	return mx
}

// TotalHaloWords returns the total ghost-layer transfer volume of one
// matvec across all processors.
func (dm *DistMatrix) TotalHaloWords() int {
	total := 0
	for dst := range dm.need {
		for src := range dm.need[dst] {
			total += len(dm.need[dst][src])
		}
	}
	return total
}

// MaxHaloWords returns the largest single halo message in words.
func (dm *DistMatrix) MaxHaloWords() int {
	mx := 0
	for dst := range dm.need {
		for src := range dm.need[dst] {
			if l := len(dm.need[dst][src]); l > mx {
				mx = l
			}
		}
	}
	return mx
}

// MulVec computes dst = A*x on the machine: halo exchange (one message
// per needed processor pair) followed by the local sparse row sweeps
// (2 flops per stored nonzero).
func (dm *DistMatrix) MulVec(m *machine.Machine, dst, x *Dist) {
	if m.P() != dm.p {
		panic("parcg: machine/partition processor count mismatch")
	}
	x.mustMatch(dst)
	// Halo exchange: every ghost-layer message is posted simultaneously.
	halo := make([]map[int]float64, dm.p)
	for i := range halo {
		halo[i] = map[int]float64{}
	}
	var msgs []machine.Message
	for dstProc := 0; dstProc < dm.p; dstProc++ {
		for srcProc := 0; srcProc < dm.p; srcProc++ {
			idxs := dm.need[dstProc][srcProc]
			if len(idxs) == 0 {
				continue
			}
			msgs = append(msgs, machine.Message{From: srcProc, To: dstProc, Words: len(idxs)})
			for _, g := range idxs {
				halo[dstProc][g] = x.At(g)
			}
		}
	}
	m.SendPhase(msgs)
	// Local compute.
	for proc := 0; proc < dm.p; proc++ {
		lo, hi := dm.lay.Lo(proc), dm.lay.Hi(proc)
		nnz := 0
		for r := lo; r < hi; r++ {
			var s float64
			dm.a.ScanRow(r, func(c int, v float64) {
				nnz++
				var xv float64
				if c >= lo && c < hi {
					xv = x.parts[proc][c-lo]
				} else {
					xv = halo[proc][c]
				}
				s += v * xv
			})
			dst.parts[proc][r-lo] = s
		}
		m.Compute(proc, 2*nnz)
	}
}

// Package parcg holds the paper's three schedules — blocking CG,
// pipelined CG, and the anchored look-ahead recurrence — in the two
// forms the repository needs, each exactly once: real-parallel
// engine.Kernels that do the numerics with the reductions overlapped on
// background goroutines (kernels.go), and the schedules' cost on the
// simulated machine (package machine), charged by Replay for the
// iteration count a solve performed (replay.go). The cost side carries
// no data: this file is the row partition it charges through, built once
// per replay.
package parcg

import (
	"fmt"
	"slices"

	"vrcg/internal/machine"
	"vrcg/sparse"
)

// Partition is an operator's contiguous row-block partition over P
// processors, reduced to what a distributed product costs: the rows and
// stored nonzeros each processor owns, and the ghost-layer messages of
// one product — to each processor, one message from every processor
// owning a column its rows read, a word for each distinct such column.
// For the stencil operators that is the familiar ghost layer; for a
// general CSR it is whatever the sparsity demands.
type Partition struct {
	n, p  int
	nnz   []int // stored nonzeros in processor i's rows
	total int   // stored nonzeros of the operator
	// halo is one product's messages, ordered by receiver, then sender.
	halo []machine.Message
}

// NewPartition partitions a over p processors by contiguous row blocks:
// processor i owns rows [i·n/p, (i+1)·n/p).
func NewPartition(a *sparse.CSR, p int) *Partition {
	if p < 1 {
		panic(fmt.Sprintf("parcg: NewPartition needs p >= 1, got %d", p))
	}
	n := a.Dim()
	pt := &Partition{n: n, p: p, nnz: make([]int, p), total: a.NNZ()}
	seen := make([]int, n)  // 1 + the last receiver that counted column c
	words := make([]int, p) // the current receiver's words from each sender
	var senders []int
	var dst, lo, hi int
	count := func(c int, _ float64) {
		pt.nnz[dst]++
		if (c >= lo && c < hi) || seen[c] == dst+1 {
			return
		}
		seen[c] = dst + 1
		src := pt.owner(c)
		if words[src] == 0 {
			senders = append(senders, src)
		}
		words[src]++
	}
	for dst = 0; dst < p; dst++ {
		lo, hi = pt.lo(dst), pt.lo(dst+1)
		for r := lo; r < hi; r++ {
			a.ScanRow(r, count)
		}
		slices.Sort(senders)
		for _, src := range senders {
			pt.halo = append(pt.halo, machine.Message{From: src, To: dst, Words: words[src]})
			words[src] = 0
		}
		senders = senders[:0]
	}
	return pt
}

// lo returns the first row processor i owns.
func (pt *Partition) lo(i int) int { return i * pt.n / pt.p }

// owner returns the processor owning row (or column) g.
func (pt *Partition) owner(g int) int {
	// Inverse of the block formula: a direct estimate, corrected.
	i := g * pt.p / pt.n
	for pt.lo(i) > g {
		i--
	}
	for pt.lo(i+1) <= g {
		i++
	}
	return i
}

// HaloDegree returns the largest number of distinct processors any one
// processor must receive from during a product — the per-iteration
// message count that multiplies the latency term.
func (pt *Partition) HaloDegree() int {
	mx, run := 0, 0
	for i, msg := range pt.halo {
		if i == 0 || msg.To != pt.halo[i-1].To {
			run = 0
		}
		run++
		mx = max(mx, run)
	}
	return mx
}

// TotalHaloWords returns the total ghost-layer transfer volume of one
// product across all processors.
func (pt *Partition) TotalHaloWords() int {
	total := 0
	for _, msg := range pt.halo {
		total += msg.Words
	}
	return total
}

// MulVec charges one distributed product on m: every ghost-layer
// message posted at once, then each processor's sweep over its rows at
// 2 flops a stored nonzero.
func (pt *Partition) MulVec(m *machine.Machine) {
	if m.P() != pt.p {
		panic("parcg: machine/partition processor count mismatch")
	}
	m.SendPhase(pt.halo)
	for i, nz := range pt.nnz {
		m.Compute(i, 2*nz)
	}
}

// Sweep charges one elementwise pass over every processor's rows at
// flops a row: 2 for an axpy, an xpay or a local inner-product partial,
// 1 for a scaling.
func (pt *Partition) Sweep(m *machine.Machine, flops int) {
	for i := 0; i < pt.p; i++ {
		m.Compute(i, flops*(pt.lo(i+1)-pt.lo(i)))
	}
}

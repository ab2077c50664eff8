package cluster

import (
	"fmt"
	"sort"

	"vrcg/sparse"
)

// Plan is the domain decomposition of one operator across a fleet: the
// nnz-balanced row partition (reusing sparse.RowPartition, the same
// balance the shared-memory pool uses) plus, per shard, the fully
// resolved halo-exchange schedule. The coordinator builds the plan once
// per placement; workers receive only their own Shard and follow it —
// no worker ever re-derives communication structure.
type Plan struct {
	// N is the global operator order.
	N int
	// Bounds are the partition offsets: shard s owns global rows
	// Bounds[s]..Bounds[s+1]. Strictly increasing, so every shard owns
	// at least one row; len(Bounds)-1 is the shard count (which may be
	// smaller than the requested worker count for tiny operators).
	Bounds []int
	// Shards holds one spec per partition cell.
	Shards []*Shard
}

// Shard is one worker's piece of the operator: its rows in CSR form
// with columns remapped into the local index space, and the halo
// schedule. The local column space is
//
//	[0, NLocal)            owned entries (global row/col minus Row0)
//	[NLocal, NLocal+HaloN) halo entries, ascending global column order
//
// so the local iterate vector is [owned | halo] and a neighbor's halo
// message lands in one contiguous copy.
type Shard struct {
	Index      int
	Row0, Row1 int

	// Local CSR arrays: RowPtr has NLocal+1 offsets; Cols are local
	// column indices (owned then halo), 32-bit as sparse.CSR's are; Vals
	// the nonzero values.
	RowPtr []int
	Cols   []int32
	Vals   []float64

	// HaloN is the number of external values this shard reads per
	// matvec (the halo width).
	HaloN int
	// Recv lists, ascending by From, where each neighbor's batched halo
	// message lands: Count values at halo offset Off (i.e. local index
	// NLocal+Off).
	Recv []HaloRecv
	// Send lists, ascending by To: the local owned indices to gather
	// into the one batched message for each neighbor, in the exact
	// order that neighbor's halo region expects.
	Send []HaloSend
}

// HaloRecv is one neighbor's incoming batch: Count float64s written at
// halo offset Off.
type HaloRecv struct {
	From  int
	Off   int
	Count int
}

// HaloSend is one neighbor's outgoing batch: the owned local indices to
// gather, in receiver order.
type HaloSend struct {
	To    int
	Local []int
}

// NLocal returns the number of rows this shard owns.
func (sh *Shard) NLocal() int { return sh.Row1 - sh.Row0 }

// MulVec computes dst = A_shard * x for the local row block. x must
// have length NLocal+HaloN with the halo region current; dst has length
// NLocal. Row accumulation order matches sparse.CSR.MulVec, so a
// one-shard plan reproduces the serial product bitwise.
func (sh *Shard) MulVec(dst, x []float64) {
	n := sh.NLocal()
	if len(dst) != n || len(x) != n+sh.HaloN {
		panic(fmt.Sprintf("cluster: shard MulVec dims dst=%d x=%d want %d/%d",
			len(dst), len(x), n, n+sh.HaloN))
	}
	for i := 0; i < n; i++ {
		var s float64
		for p := sh.RowPtr[i]; p < sh.RowPtr[i+1]; p++ {
			s += sh.Vals[p] * x[sh.Cols[p]]
		}
		dst[i] = s
	}
}

// DiagBlock extracts the shard's diagonal block (owned rows x owned
// columns) as a standalone CSR — the subdomain operator the block-
// Jacobi / zero-overlap additive-Schwarz preconditioner factorizes with
// the existing precond locals. Entries with halo columns are exactly
// the off-block couplings and are dropped.
func (sh *Shard) DiagBlock() *sparse.CSR {
	n := sh.NLocal()
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for p := sh.RowPtr[i]; p < sh.RowPtr[i+1]; p++ {
			if int(sh.Cols[p]) < n {
				rowPtr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	cols := make([]int, rowPtr[n])
	vals := make([]float64, rowPtr[n])
	k := 0
	for i := 0; i < n; i++ {
		for p := sh.RowPtr[i]; p < sh.RowPtr[i+1]; p++ {
			if int(sh.Cols[p]) < n {
				cols[k] = int(sh.Cols[p])
				vals[k] = sh.Vals[p]
				k++
			}
		}
	}
	return sparse.NewCSR(n, rowPtr, cols, vals)
}

// shardOf locates the shard owning global row/column j.
func shardOf(bounds []int, j int) int {
	// bounds is strictly increasing with bounds[0]==0; the owner is the
	// last s with bounds[s] <= j.
	return sort.SearchInts(bounds, j+1) - 1
}

// BuildPlan decomposes a across at most parts shards using the
// nnz-balanced row partition, and resolves the full halo schedule: for
// every shard, which external columns it reads, grouped into one
// contiguous receive batch per neighbor, and the matching gather lists
// on the sending side. Columns inside each halo batch are in ascending
// global order on both sides, so no index list ever crosses the wire
// with a halo message — only values do.
func BuildPlan(a *sparse.CSR, parts int) (*Plan, error) {
	if a == nil || a.Dim() == 0 {
		return nil, fmt.Errorf("cluster: BuildPlan requires a non-empty operator")
	}
	if parts < 1 {
		parts = 1
	}
	n := a.Dim()
	bounds := a.RowPartition(parts)
	nShards := len(bounds) - 1
	plan := &Plan{N: n, Bounds: bounds, Shards: make([]*Shard, nShards)}

	// needs[s][o] collects the global columns shard s reads from shard
	// o, deduplicated and ascending.
	needs := make([]map[int][]int, nShards)

	for s := 0; s < nShards; s++ {
		r0, r1 := bounds[s], bounds[s+1]
		nl := r1 - r0
		sh := &Shard{Index: s, Row0: r0, Row1: r1, RowPtr: make([]int, nl+1)}

		// Pass 1: row sizes and the external column set.
		var ext []int
		for i := r0; i < r1; i++ {
			cnt := 0
			a.ScanRow(i, func(j int, _ float64) {
				cnt++
				if j < r0 || j >= r1 {
					ext = append(ext, j)
				}
			})
			sh.RowPtr[i-r0+1] = cnt
		}
		for i := 0; i < nl; i++ {
			sh.RowPtr[i+1] += sh.RowPtr[i]
		}
		sort.Ints(ext)
		ext = dedupeSorted(ext)
		sh.HaloN = len(ext)

		// Halo layout: ascending global order. Owners own contiguous
		// row ranges, so grouping by owner is a linear sweep and each
		// neighbor's batch is contiguous in the halo region.
		needs[s] = make(map[int][]int)
		off := 0
		for off < len(ext) {
			o := shardOf(bounds, ext[off])
			end := off
			for end < len(ext) && ext[end] < bounds[o+1] {
				end++
			}
			needs[s][o] = ext[off:end:end]
			sh.Recv = append(sh.Recv, HaloRecv{From: o, Off: off, Count: end - off})
			off = end
		}

		// Pass 2: fill the local CSR with remapped columns. Owned
		// columns map to j-r0; halo columns to nl + position in ext.
		sh.Cols = make([]int32, sh.RowPtr[nl])
		sh.Vals = make([]float64, sh.RowPtr[nl])
		k := 0
		for i := r0; i < r1; i++ {
			a.ScanRow(i, func(j int, v float64) {
				if j >= r0 && j < r1 {
					sh.Cols[k] = int32(j - r0)
				} else {
					sh.Cols[k] = int32(nl + sort.SearchInts(ext, j))
				}
				sh.Vals[k] = v
				k++
			})
		}
		plan.Shards[s] = sh
	}

	// Invert the receive lists into gather lists on the senders. The
	// receiver's halo batch is ascending global columns, so the sender
	// gathers those columns (as its own local indices) in that order.
	for s := 0; s < nShards; s++ {
		for _, rv := range plan.Shards[s].Recv {
			cols := needs[s][rv.From]
			local := make([]int, len(cols))
			for i, j := range cols {
				local[i] = j - bounds[rv.From]
			}
			src := plan.Shards[rv.From]
			src.Send = append(src.Send, HaloSend{To: s, Local: local})
		}
	}
	for _, sh := range plan.Shards {
		sort.Slice(sh.Send, func(i, j int) bool { return sh.Send[i].To < sh.Send[j].To })
	}
	return plan, nil
}

// dedupeSorted removes duplicates from a sorted slice in place.
func dedupeSorted(v []int) []int {
	if len(v) == 0 {
		return v
	}
	out := v[:1]
	for _, x := range v[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

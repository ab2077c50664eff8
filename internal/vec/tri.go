package vec

import "fmt"

// TriSweep is a sparse triangular substitution packed for a
// level-scheduled sweep. The system it holds is, row by row,
//
//	x[i] = (x[i] - v₀·x[j₀] - v₁·x[j₁] - …) · w / diag[i]
//
// with the subtractions in the order the row lists them, and Solve
// returns, bit for bit, what visiting the rows in any dependency-
// respecting order returns — it only chooses the order. Rows are grouped
// into levels, every x[j] a row reads belonging to a level swept earlier,
// so the rows of one level are independent of each other; within a
// level, neighbours of equal width (entry count) form a run, stored
// entry-major — entry k of the run's row j at off+k·rows+j — so that a
// run is width unit-stride streams of values and positions over rows
// that can be worked several at a time. There is no padding: a padded
// 0·x[j] would flip a -0 and turn an Inf into NaN.
//
// Solve works on a vector in the sweep's own order, position q holding
// row order[q]; positions are stored as int32 and were checked against
// the level structure when the sweep was packed, which is what lets the
// assembly body gather through them unchecked.
type TriSweep struct {
	n    int
	w    float64
	runs []triRun
	vals []float64
	pos  []int32
	diag []float64 // by position
}

// triRun is rows consecutive positions from lo, all of one level and of
// one width, their entries at off in vals and pos.
type triRun struct {
	lo, rows, width int32
	off             int
}

// TriRows is the off-diagonal part of a triangular system, row by row:
// row i subtracts Vals[p]·x[Idx[p]] for p in Ptr[i]:Ptr[i+1], in that
// order.
type TriRows struct {
	Ptr  []int
	Idx  []int32
	Vals []float64
}

// Row is the rows that row i reads.
func (t TriRows) Row(i int) []int32 { return t.Idx[t.Ptr[i]:t.Ptr[i+1]] }

// NewTriSweeps packs a forward substitution over lower and a backward
// one over upper, both finished by ·w/diag[i], on one schedule: order
// lists the rows as Solve's vector holds them, levels[l]:levels[l+1] are
// the positions of level l, and the backward sweep runs the levels last
// to first. It panics unless order is a permutation and every row reads
// only rows of levels swept before its own — the property Solve's
// independence claim, and the assembly's unchecked gathers, rest on.
func NewTriSweeps(lower, upper TriRows, diag []float64, order, levels []int32, w float64) (fwd, bwd *TriSweep) {
	n := len(order)
	if len(diag) != n || len(levels) == 0 || levels[0] != 0 || int(levels[len(levels)-1]) != n {
		panic("vec: NewTriSweeps dimension mismatch")
	}
	at := make([]int32, n) // position of each row
	for i := range at {
		at[i] = -1
	}
	byPos := make([]float64, n)
	for q, i := range order {
		if at[i] >= 0 {
			panic(fmt.Sprintf("vec: NewTriSweeps order lists row %d twice", i))
		}
		at[i], byPos[q] = int32(q), diag[i]
	}
	pack := func(tri TriRows, reverse bool) *TriSweep {
		ptr, nnz := tri.Ptr, len(tri.Idx)
		if len(ptr) != n+1 || ptr[n] != nnz || len(tri.Vals) != nnz {
			panic("vec: NewTriSweeps dimension mismatch")
		}
		t := &TriSweep{n: n, w: w, vals: make([]float64, nnz), pos: make([]int32, nnz), diag: byPos}
		off := 0
		for l := 0; l+1 < len(levels); l++ {
			lo, hi := int(levels[l]), int(levels[l+1])
			if reverse {
				lo, hi = int(levels[len(levels)-2-l]), int(levels[len(levels)-1-l])
			}
			if lo > hi {
				panic("vec: NewTriSweeps levels are not ascending")
			}
			for q := lo; q < hi; {
				// One run is one call of the assembly body, which streams
				// rows·(width+1) elements: asmChunk bounds that as it bounds
				// the whole-vector kernels, and a longer run is split. (A
				// row wider than that is a run by itself, and a run of one
				// row is Solve's own loop.)
				width := ptr[order[q]+1] - ptr[order[q]]
				rows := 1
				for q+rows < hi && ptr[order[q+rows]+1]-ptr[order[q+rows]] == width && (rows+1)*(width+1) <= asmChunk {
					rows++
				}
				rv, rp := t.vals[off:off+rows*width], t.pos[off:off+rows*width]
				for j, i := range order[q : q+rows] {
					idx, vals := tri.Idx[ptr[i]:ptr[i]+width], tri.Vals[ptr[i]:ptr[i]+width]
					for k, c := range idx {
						p := at[c]
						if (reverse && int(p) < hi) || (!reverse && int(p) >= lo) {
							panic(fmt.Sprintf("vec: NewTriSweeps row %d reads row %d, which is not swept before it", i, c))
						}
						rv[k*rows+j], rp[k*rows+j] = vals[k], p
					}
				}
				t.runs = append(t.runs, triRun{lo: int32(q), rows: int32(rows), width: int32(width), off: off})
				off += rows * width
				q += rows
			}
		}
		return t
	}
	return pack(lower, false), pack(upper, true)
}

// Solve overwrites x, right-hand side in, with the solution, both in
// the sweep's order. Runs of at least one register of rows go to the
// assembly body where it runs; the Go body is the definition.
func (t *TriSweep) Solve(x []float64) {
	if len(x) != t.n {
		panic("vec: TriSweep.Solve dimension mismatch")
	}
	for i := range t.runs {
		r := &t.runs[i]
		lo, rows, width := int(r.lo), int(r.rows), int(r.width)
		vals := t.vals[r.off : r.off+rows*width]
		pos := t.pos[r.off : r.off+rows*width]
		if rows == 1 {
			// A run of one row — every level of a chain — is a plain
			// loop: no call, no body to choose.
			s := x[lo]
			for k, v := range vals {
				s -= v * x[pos[k]]
			}
			x[lo] = triFinish(s, t.w, t.diag[lo])
			continue
		}
		d := t.diag[lo : lo+rows]
		if useAVX2 && rows >= 4 {
			triRunAVX2(x, lo, d, vals, pos, width, t.w)
		} else {
			triRunGo(x, lo, d, vals, pos, width, t.w)
		}
	}
}

// triRunGo sweeps one run: rows len(d) from position lo of x, entry k of
// row j at vals[k·rows+j], pos[k·rows+j]. Widths up to three have a body
// each; the generic one does the same subtractions in the same order.
func triRunGo(x []float64, lo int, d, vals []float64, pos []int32, width int, w float64) {
	rows := len(d)
	xs := x[lo : lo+rows]
	switch width {
	case 0:
		for j, s := range xs {
			xs[j] = triFinish(s, w, d[j])
		}
	case 1:
		v0, p0 := vals[:rows], pos[:rows]
		for j, s := range xs {
			s -= v0[j] * x[p0[j]]
			xs[j] = triFinish(s, w, d[j])
		}
	case 2:
		v0, p0 := vals[:rows], pos[:rows]
		v1, p1 := vals[rows:2*rows], pos[rows:2*rows]
		for j, s := range xs {
			s -= v0[j] * x[p0[j]]
			s -= v1[j] * x[p1[j]]
			xs[j] = triFinish(s, w, d[j])
		}
	case 3:
		v0, p0 := vals[:rows], pos[:rows]
		v1, p1 := vals[rows:2*rows], pos[rows:2*rows]
		v2, p2 := vals[2*rows:3*rows], pos[2*rows:3*rows]
		for j, s := range xs {
			s -= v0[j] * x[p0[j]]
			s -= v1[j] * x[p1[j]]
			s -= v2[j] * x[p2[j]]
			xs[j] = triFinish(s, w, d[j])
		}
	default:
		for j, s := range xs {
			for k := j; k < len(vals); k += rows {
				s -= vals[k] * x[pos[k]]
			}
			xs[j] = triFinish(s, w, d[j])
		}
	}
}

// triFinish is s·w/d. s·1 is s to the bit for every s (a NaN stays a
// NaN), so w == 1 — an incomplete Cholesky factor, where SSOR has its
// relaxation parameter — skips the multiply and keeps it out of the
// dependency chain.
func triFinish(s, w, d float64) float64 {
	if w != 1 {
		s *= w
	}
	return s / d
}

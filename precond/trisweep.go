package precond

import (
	"fmt"
	"math"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// checkOrder reports an order whose rows the sweeps' int32 positions
// cannot number.
func checkOrder(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("precond: order %d is beyond the triangular sweep's int32 positions", n)
	}
	return nil
}

// triangle returns the strictly lower rows of a (the strictly upper
// ones if upper), entries in ScanRow's order, and a's diagonal; missing
// is the first row that stores no diagonal entry (its diag is 0), or -1.
// a has passed checkOrder.
func triangle(a *sparse.CSR, upper bool) (t vec.TriRows, diag []float64, missing int) {
	n := a.Dim()
	half := max(0, a.NNZ()-n+1) / 2 // all of it when a is symmetric with a full diagonal
	idx, vals, ptr := make([]int32, 0, half), make([]float64, 0, half), make([]int, n+1)
	diag, missing = make([]float64, n), -1
	for i := 0; i < n; i++ {
		hasDiag := false
		a.ScanRow(i, func(j int, v float64) {
			switch {
			case j == i:
				if !hasDiag {
					diag[i], hasDiag = v, true
				}
			case j > i == upper:
				idx, vals = append(idx, int32(j)), append(vals, v)
			}
		})
		if !hasDiag && missing < 0 {
			missing = i
		}
		ptr[i+1] = len(idx)
	}
	return vec.TriRows{Ptr: ptr, Idx: idx, Vals: vals}, diag, missing
}

// transposed is tᵀ with each row's entries in descending index order:
// row c of the result subtracts t's column c from the bottom up, the
// order in which a row-by-row backward scatter over t reaches x[c].
func transposed(t vec.TriRows) vec.TriRows {
	n := len(t.Ptr) - 1
	out := vec.TriRows{Ptr: make([]int, n+2), Idx: make([]int32, len(t.Idx)), Vals: make([]float64, len(t.Vals))}
	for _, c := range t.Idx {
		out.Ptr[c+2]++
	}
	for c := 0; c < n; c++ {
		out.Ptr[c+2] += out.Ptr[c+1]
	}
	// out.Ptr[c+1] is where column c's next entry goes, and ends as the
	// start of column c+1.
	for i := n - 1; i >= 0; i-- {
		for p := t.Ptr[i]; p < t.Ptr[i+1]; p++ {
			q := out.Ptr[t.Idx[p]+1]
			out.Idx[q], out.Vals[q] = int32(i), t.Vals[p]
			out.Ptr[t.Idx[p]+1]++
		}
	}
	out.Ptr = out.Ptr[:n+1]
	return out
}

// triSolve is a forward and a backward substitution sharing one level
// schedule. Substituting in index order makes every row wait a multiply,
// a subtract and a divide on the one before; but row i needs only the
// rows its entries name, and the depth of that dependency graph — 2m-1
// levels for the m×m five-point grid's m² rows — is all the waiting
// there has to be. Rows are ordered level by level
// and the vector is carried in that order between the sweeps, so a
// level is a contiguous stretch of independent rows; the arithmetic of
// each row is untouched, and so is every bit of the result.
type triSolve struct {
	perm     []int32 // perm[q] is the row at position q
	fwd, bwd *vec.TriSweep
	t        vec.Vector // the work vector, by position
}

// newTriSolve schedules and packs lower (row i reads rows below i) and
// upper (rows above i), both finished by ·w/diag[i]. The backward sweep
// runs the forward sweep's levels last to first, so one permutation
// serves both: a level's rows are independent in either direction, and
// the two graphs have the same depth.
func newTriSolve(lower, upper vec.TriRows, diag []float64, w float64) *triSolve {
	s := &triSolve{t: vec.New(len(diag))}
	var levels []int32
	s.perm, levels = schedule(lower, upper)
	s.fwd, s.bwd = vec.NewTriSweeps(lower, upper, diag, s.perm, levels, w)
	return s
}

// schedule levels the rows — a row's level is one more than the highest
// level among the rows it reads in lower, and below that of every row it
// reads in upper (the same constraint when the pattern is symmetric) —
// and orders them by level, then by lower width, then by index, so that
// rows of equal width are neighbours. It returns the order and the level
// boundaries within it.
func schedule(lower, upper vec.TriRows) (order, levels []int32) {
	n := len(lower.Ptr) - 1
	level, width := make([]int32, n), make([]int32, n)
	order = make([]int32, n)
	for i := 0; i < n; i++ {
		l := level[i]
		for _, j := range lower.Row(i) {
			if level[j] >= l {
				l = level[j] + 1
			}
		}
		for _, j := range upper.Row(i) {
			if level[j] <= l {
				level[j] = l + 1
			}
		}
		level[i], width[i], order[i] = l, int32(len(lower.Row(i))), int32(i)
	}
	order, _ = sortByKey(order, width)
	return sortByKey(order, level)
}

// sortByKey is a stable counting sort of order by key[order[·]]; key k's
// rows end up at bounds[k]:bounds[k+1].
func sortByKey(order, key []int32) (sorted, bounds []int32) {
	top := int32(0)
	for _, k := range key {
		top = max(top, k)
	}
	next := make([]int32, top+3)
	for _, k := range key {
		next[k+2]++
	}
	for k := range next[2:] {
		next[k+2] += next[k+1]
	}
	// next[k+1] is where key k's next row goes, and ends as the start of
	// key k+1.
	sorted = make([]int32, len(order))
	for _, i := range order {
		sorted[next[key[i]+1]] = i
		next[key[i]+1]++
	}
	return sorted, next[:top+2]
}

// forward gathers r into sweep order, solves the lower system and
// returns the work vector.
func (s *triSolve) forward(r vec.Vector) vec.Vector {
	for q, i := range s.perm {
		s.t[q] = r[i]
	}
	s.fwd.Solve(s.t)
	return s.t
}

// backward solves the upper system on the work vector and scatters it
// into dst.
func (s *triSolve) backward(dst vec.Vector) {
	s.bwd.Solve(s.t)
	for q, i := range s.perm {
		dst[i] = s.t[q]
	}
}

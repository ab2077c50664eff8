package sparse

import (
	"runtime"
	"testing"

	"vrcg/internal/vec"
)

// irregularCSR builds a matrix whose row lengths vary wildly (one dense
// arrow row plus a sparse tail), the shape that defeats equal-row-count
// partitioning.
func irregularCSR(n int) *CSR {
	coo := NewCOO(n)
	for j := 0; j < n; j++ {
		coo.Add(0, j, 1/float64(j+1))
	}
	for i := 1; i < n; i++ {
		coo.Add(i, i, 4)
		coo.Add(i, 0, 1/float64(i+1))
		if i+1 < n {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

// TestMulVecPoolMatchesSerial is the satellite equivalence property:
// the pooled SpMV must match the serial product bitwise (row-level
// parallelism does not reorder any row's accumulation) across worker
// counts 1, 2, NumCPU, and > rows.
func TestMulVecPoolMatchesSerial(t *testing.T) {
	mats := map[string]*CSR{
		"poisson2d": Poisson2D(17), // n=289
		"irregular": irregularCSR(400),
		"random":    RandomSPD(301, 7, 99),
		"tiny":      TridiagToeplitz(3, 4, -1),
	}
	for name, a := range mats {
		n := a.Dim()
		x := vec.New(n)
		vec.Random(x, uint64(n))
		want := vec.New(n)
		a.MulVec(want, x)
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), n + 5} {
			pool := vec.NewPoolMinChunk(w, 1)
			got := vec.New(n)
			vec.Fill(got, -123)
			a.MulVecPool(pool, got, x)
			if !vec.Equal(want, got) {
				t.Fatalf("%s n=%d workers=%d: MulVecPool differs from MulVec", name, n, w)
			}
			pool.Close()
		}
	}
}

// TestMulVecPoolZeroAlloc: a warm pooled SpMV allocates nothing.
func TestMulVecPoolZeroAlloc(t *testing.T) {
	a := Poisson2D(64) // n=4096
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()
	x := vec.New(a.Dim())
	vec.Random(x, 21)
	dst := vec.New(a.Dim())
	a.MulVecPool(pool, dst, x) // warm partition cache + workers
	if avg := testing.AllocsPerRun(100, func() { a.MulVecPool(pool, dst, x) }); avg != 0 {
		t.Errorf("warm MulVecPool allocates %v per call, want 0", avg)
	}
}

// TestRowPartitionBalance: the partition covers all rows, is strictly
// increasing, and each chunk's nonzero count is within one row of the
// ideal share (equal work, not equal rows).
func TestRowPartitionBalance(t *testing.T) {
	for name, a := range map[string]*CSR{
		"poisson2d": Poisson2D(20),
		"irregular": irregularCSR(500),
	} {
		for _, parts := range []int{1, 2, 3, 8, 64} {
			bounds := a.RowPartition(parts)
			if bounds[0] != 0 || bounds[len(bounds)-1] != a.Dim() {
				t.Fatalf("%s parts=%d: bounds %v do not span rows", name, parts, bounds)
			}
			maxRow := a.MaxRowNonzeros()
			ideal := a.NNZ() / parts
			for c := 0; c+1 < len(bounds); c++ {
				if bounds[c+1] <= bounds[c] {
					t.Fatalf("%s parts=%d: bounds %v not strictly increasing", name, parts, bounds)
				}
				nnz := a.arrays.Load().rowPtr[bounds[c+1]] - a.arrays.Load().rowPtr[bounds[c]]
				// A chunk can exceed the ideal share by at most one row
				// (cuts land on row boundaries).
				if nnz > ideal+maxRow {
					t.Fatalf("%s parts=%d chunk %d: nnz=%d exceeds ideal %d + maxrow %d",
						name, parts, c, nnz, ideal, maxRow)
				}
			}
		}
	}
}

// TestRowPartitionBalancesIrregularRows checks the headline property on
// the arrow matrix: the dense first row must get a chunk to itself
// rather than dragging half the matrix with it.
func TestRowPartitionBalancesIrregularRows(t *testing.T) {
	a := irregularCSR(1000) // row 0 holds ~25% of all nonzeros
	bounds := a.RowPartition(4)
	if len(bounds) < 3 {
		t.Fatalf("partition collapsed: %v", bounds)
	}
	if bounds[1] != 1 {
		t.Fatalf("dense arrow row not isolated: first cut at %d, want 1 (bounds %v)", bounds[1], bounds)
	}
}

// TestToCSRSortBasedSemantics pins down the sort-based rebuild:
// duplicates sum, exact-zero sums are dropped, and columns come out
// sorted, including for unsorted and adversarial input orders.
func TestToCSRSortBasedSemantics(t *testing.T) {
	coo := NewCOO(4)
	coo.Add(2, 3, 5)
	coo.Add(0, 2, 1)
	coo.Add(2, 0, 2)
	coo.Add(0, 2, 1.5) // duplicate: sums to 2.5
	coo.Add(1, 1, 4)
	coo.Add(3, 1, 7)
	coo.Add(3, 1, -7) // cancels to zero: dropped
	coo.Add(0, 0, 3)
	a := coo.ToCSR()

	if got := a.NNZ(); got != 5 {
		t.Fatalf("NNZ = %d, want 5 (duplicate merged, zero dropped)", got)
	}
	if got := a.At(0, 2); got != 2.5 {
		t.Fatalf("A[0,2] = %v, want 2.5", got)
	}
	if got := a.At(3, 1); got != 0 {
		t.Fatalf("A[3,1] = %v, want 0 (dropped)", got)
	}
	if got := a.At(2, 0); got != 2 {
		t.Fatalf("A[2,0] = %v, want 2", got)
	}
	// Columns sorted within each row.
	for i := 0; i < a.Dim(); i++ {
		prev := -1
		a.ScanRow(i, func(j int, _ float64) {
			if j <= prev {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
			prev = j
		})
	}
}

// TestToCSREmptyAndAllCancelled: degenerate inputs produce valid empty
// structures.
func TestToCSRDegenerate(t *testing.T) {
	if got := NewCOO(3).ToCSR().NNZ(); got != 0 {
		t.Fatalf("empty COO NNZ = %d", got)
	}
	coo := NewCOO(2)
	coo.Add(1, 0, 2)
	coo.Add(1, 0, -2)
	a := coo.ToCSR()
	if got := a.NNZ(); got != 0 {
		t.Fatalf("fully cancelled COO NNZ = %d", got)
	}
	y := vec.New(2)
	a.MulVec(y, vec.NewFrom([]float64{1, 1}))
	if y[0] != 0 || y[1] != 0 {
		t.Fatal("empty CSR MulVec nonzero")
	}
}

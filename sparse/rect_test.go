package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// denseRef multiplies y = D x for a row-major rows×cols dense array —
// the independent reference every rectangular product is checked
// against.
func denseRef(rows, cols int, data, x []float64) []float64 {
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var s float64
		for j := 0; j < cols; j++ {
			s += data[i*cols+j] * x[j]
		}
		y[i] = s
	}
	return y
}

// denseRefT multiplies y = Dᵀ x.
func denseRefT(rows, cols int, data, x []float64) []float64 {
	y := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			y[j] += data[i*cols+j] * x[i]
		}
	}
	return y
}

// randomRect builds a sparse rows×cols matrix (≈density fill) alongside
// its dense image.
func randomRect(rng *rand.Rand, rows, cols int, density float64) (*Rect, []float64) {
	data := make([]float64, rows*cols)
	for i := range data {
		if rng.Float64() < density {
			data[i] = rng.NormFloat64()
		}
	}
	return RectFromDense(rows, cols, data), data
}

func TestRectMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 1}, {7, 3}, {3, 7}, {40, 40}, {61, 13}} {
		rows, cols := shape[0], shape[1]
		m, data := randomRect(rng, rows, cols, 0.4)
		if m.Rows() != rows || m.Cols() != cols || m.Dim() != rows {
			t.Fatalf("%dx%d: got Rows=%d Cols=%d Dim=%d", rows, cols, m.Rows(), m.Cols(), m.Dim())
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		dst := make([]float64, rows)
		m.MulVec(dst, x)
		want := denseRef(rows, cols, data, x)
		for i := range dst {
			if diff := dst[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%dx%d MulVec: dst[%d] = %g, want %g", rows, cols, i, dst[i], want[i])
			}
		}

		xt := make([]float64, rows)
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		dstT := make([]float64, cols)
		m.MulVecT(dstT, xt)
		wantT := denseRefT(rows, cols, data, xt)
		for i := range dstT {
			if diff := dstT[i] - wantT[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%dx%d MulVecT: dst[%d] = %g, want %g", rows, cols, i, dstT[i], wantT[i])
			}
		}
	}
}

// TestRectPooledProductsBitwiseIdentical: the pooled paths must produce
// bit-for-bit the serial answer — partition changes work distribution,
// never summation order within a row.
func TestRectPooledProductsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := NewPool(4)
	defer pool.Close()
	rows, cols := 97, 23
	m, _ := randomRect(rng, rows, cols, 0.3)

	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial := make([]float64, rows)
	pooled := make([]float64, rows)
	m.MulVec(serial, x)
	m.MulVecPool(pool, pooled, x)
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Fatalf("MulVecPool differs at %d: %g vs %g", i, pooled[i], serial[i])
		}
	}

	xt := make([]float64, rows)
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	serialT := make([]float64, cols)
	pooledT := make([]float64, cols)
	m.MulVecT(serialT, xt)
	PooledMulVecT(m, pool, pooledT, xt)
	for i := range serialT {
		if serialT[i] != pooledT[i] {
			t.Fatalf("PooledMulVecT differs at %d: %g vs %g", i, pooledT[i], serialT[i])
		}
	}
}

// TestCSRMulVecTMatchesDense: the square transpose path used by the
// nonsymmetric kernels.
func TestCSRMulVecTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 50
	coo := NewCOO(n)
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.15 || i == j {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				data[i*n+j] = v
			}
		}
	}
	m := coo.ToCSR()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	m.MulVecT(dst, x)
	want := denseRefT(n, n, data, x)
	for i := range dst {
		if diff := dst[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("CSR MulVecT: dst[%d] = %g, want %g", i, dst[i], want[i])
		}
	}

	pool := NewPool(3)
	defer pool.Close()
	pooled := make([]float64, n)
	m.MulVecTPool(pool, pooled, x)
	for i := range dst {
		if dst[i] != pooled[i] {
			t.Fatalf("CSR MulVecTPool differs at %d: %g vs %g", i, pooled[i], dst[i])
		}
	}
}

// TestRectValueMutationInvalidatesTranspose: Scale and SetValues must
// invalidate the cached transpose so MulVecT tracks the new values.
func TestRectValueMutationInvalidatesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rows, cols := 30, 8
	m, data := randomRect(rng, rows, cols, 0.5)
	x := make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	before := make([]float64, cols)
	m.MulVecT(before, x) // warms the transpose cache

	m.Scale(3)
	after := make([]float64, cols)
	m.MulVecT(after, x)
	for i := range after {
		if diff := after[i] - 3*before[i]; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("after Scale(3), MulVecT[%d] = %g, want %g (stale transpose cache?)", i, after[i], 3*before[i])
		}
	}

	// SetValues back to the originals restores the original product.
	orig := make([]float64, 0, m.NNZ())
	for _, v := range data {
		if v != 0 {
			orig = append(orig, v)
		}
	}
	m.SetValues(orig)
	m.MulVecT(after, x)
	for i := range after {
		if diff := after[i] - before[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("after SetValues, MulVecT[%d] = %g, want %g", i, after[i], before[i])
		}
	}
}

// TestCSRValueMutationInvalidatesTranspose: same property on the square
// type, whose transpose cache rides next to the format-tuning cache.
func TestCSRValueMutationInvalidatesTranspose(t *testing.T) {
	m := Poisson1D(20)
	x := make([]float64, m.Dim())
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	before := make([]float64, m.Dim())
	m.MulVecT(before, x)

	m.Scale(2)
	after := make([]float64, m.Dim())
	m.MulVecT(after, x)
	for i := range after {
		if diff := after[i] - 2*before[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("after Scale(2), CSR MulVecT[%d] = %g, want %g", i, after[i], 2*before[i])
		}
	}
}

// TestRectCloneValuesIsolation: clones share structure but own their
// values — mutating one never shows through the other.
func TestRectCloneValuesIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows, cols := 25, 6
	m, _ := randomRect(rng, rows, cols, 0.5)
	c := m.CloneValues()
	if c.Rows() != rows || c.Cols() != cols || c.NNZ() != m.NNZ() {
		t.Fatalf("clone shape %dx%d nnz %d, want %dx%d nnz %d", c.Rows(), c.Cols(), c.NNZ(), rows, cols, m.NNZ())
	}

	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	origProduct := make([]float64, rows)
	m.MulVec(origProduct, x)

	c.Scale(10)
	got := make([]float64, rows)
	m.MulVec(got, x)
	for i := range got {
		if got[i] != origProduct[i] {
			t.Fatalf("scaling the clone changed the original at %d: %g vs %g", i, got[i], origProduct[i])
		}
	}
	c.MulVec(got, x)
	for i := range got {
		if diff := got[i] - 10*origProduct[i]; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("clone product[%d] = %g, want %g", i, got[i], 10*origProduct[i])
		}
	}
}

// TestRectRejectsMalformed: NewRect validates its arrays.
func TestRectRejectsMalformed(t *testing.T) {
	cases := []struct {
		name           string
		rows, cols     int
		rowPtr, colIdx []int
		vals           []float64
	}{
		{"short rowPtr", 2, 2, []int{0, 1}, []int{0}, []float64{1}},
		{"rowPtr not ending at nnz", 2, 2, []int{0, 1, 3}, []int{0, 1}, []float64{1, 2}},
		{"column out of range", 1, 2, []int{0, 1}, []int{2}, []float64{1}},
		{"negative column", 1, 2, []int{0, 1}, []int{-1}, []float64{1}},
		{"vals/colIdx mismatch", 1, 2, []int{0, 1}, []int{0}, []float64{1, 2}},
		{"nonpositive dims", 0, 2, []int{0}, nil, nil},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRect(%s): expected panic", tc.name)
				}
			}()
			NewRect(tc.rows, tc.cols, tc.rowPtr, tc.colIdx, tc.vals)
		}()
	}
}

// TestConstructorsCheckColumnWidth: NewCSR and NewRect copy the column
// indices into 32 bits, so each refuses, in its own name, an index
// outside [0, cols) and a column count past math.MaxInt32.
func TestConstructorsCheckColumnWidth(t *testing.T) {
	wide := math.MaxInt32 + 1
	for _, tc := range []struct {
		name, want string
		build      func()
	}{
		{"NewCSR negative", "NewCSR: column index -1", func() { NewCSR(2, []int{0, 1, 1}, []int{-1}, []float64{1}) }},
		{"NewCSR index = n", "NewCSR: column index 2", func() { NewCSR(2, []int{0, 1, 1}, []int{2}, []float64{1}) }},
		{"NewCSR n past int32", "NewCSR: 2147483648 columns", func() { NewCSR(wide, []int{0}, nil, nil) }},
		{"NewRect negative", "NewRect: column index -1", func() { NewRect(1, 3, []int{0, 1}, []int{-1}, []float64{1}) }},
		{"NewRect index = cols", "NewRect: column index 3", func() { NewRect(1, 3, []int{0, 1}, []int{3}, []float64{1}) }},
		{"NewRect cols past int32", "NewRect: 2147483648 columns", func() { NewRect(1, wide, []int{0, 0}, nil, nil) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one naming %q", tc.name, msg, tc.want)
				}
			}()
			tc.build()
		}()
	}

	// The index slice is copied, not sorted in place; the values are
	// the matrix's own.
	cols, vals := []int{2, 0}, []float64{5, 3}
	m := NewCSR(3, []int{0, 2, 2, 2}, cols, vals)
	if cols[0] != 2 || cols[1] != 0 || vals[0] != 3 || m.At(0, 2) != 5 {
		t.Errorf("NewCSR left cols %v, vals %v; want cols untouched and vals in column order", cols, vals)
	}
}

// TestRectSortsRowEntries: NewRect accepts unsorted in-row entries and
// canonicalizes them.
func TestRectSortsRowEntries(t *testing.T) {
	// Row 0: entries at columns 2, 0 given out of order.
	m := NewRect(2, 3, []int{0, 2, 3}, []int{2, 0, 1}, []float64{5, 3, 7})
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %g, want 3", got)
	}
	if got := m.At(0, 2); got != 5 {
		t.Errorf("At(0,2) = %g, want 5", got)
	}
	x := []float64{1, 10, 100}
	dst := make([]float64, 2)
	m.MulVec(dst, x)
	if dst[0] != 503 || dst[1] != 70 {
		t.Errorf("MulVec = %v, want [503 70]", dst)
	}
}

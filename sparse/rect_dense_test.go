package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"vrcg/internal/vec"
)

// denseSpecials are the values a dense product must carry through with
// the CSR loop's bits: signed zeros, subnormals, infinities, NaN, and
// magnitudes whose products overflow or underflow.
var denseSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-308, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e200, 1, -1,
}

// csrLoop is the CSR product loop the dense kernels stand in for,
// written out as the oracle: dst[i] sums vals[p]·x[colIdx[p]] over row
// i's entries in storage order, from +0.
func csrLoop(rowPtr []int, colIdx []int32, vals, dst, x []float64) {
	for i := 0; i+1 < len(rowPtr); i++ {
		var s float64
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			s += vals[p] * x[colIdx[p]]
		}
		dst[i] = s
	}
}

// denseRectCase fills a rows×cols dense Rect and the two product inputs
// from rng. With special, one value in four, in the matrix and in both
// inputs, is drawn from denseSpecials; without, row 0 of A·x and
// column 0 of Aᵀ·xt get products that are all −0, whose sums must
// still be +0.
func denseRectCase(rng *rand.Rand, rows, cols int, special bool) (m *Rect, x, xt []float64) {
	draw := func() float64 {
		if special && rng.Intn(4) == 0 {
			return denseSpecials[rng.Intn(len(denseSpecials))]
		}
		return rng.NormFloat64()
	}
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = draw()
	}
	x, xt = make([]float64, cols), make([]float64, rows)
	for j := range x {
		x[j] = draw()
	}
	for i := range xt {
		xt[i] = draw()
	}
	if !special {
		negZero := math.Copysign(0, -1)
		for j := 0; j < cols; j++ {
			data[j], x[j] = negZero, 1+float64(j)
		}
		xt[0] = 1
		for i := 1; i < rows; i++ {
			data[i*cols], xt[i] = float64(i%3)+1, negZero
		}
	}
	return denseFromData(rows, cols, data), x, xt
}

// denseFromData builds a Rect storing every entry of data, zeros
// included (RectFromDense would drop them).
func denseFromData(rows, cols int, data []float64) *Rect {
	rowPtr, colIdx := make([]int, rows+1), make([]int, rows*cols)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = (i + 1) * cols
		for j := 0; j < cols; j++ {
			colIdx[i*cols+j] = j
		}
	}
	return NewRect(rows, cols, rowPtr, colIdx, data)
}

// sameProducts is the oracle's equality: the same bits, or both NaN (a
// NaN's payload depends on operand order, which neither path defines).
func sameProducts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// checkDenseProducts holds m's four products to the CSR loop over m's
// arrays (MulVec, MulVecPool) and over the arrays of its explicit
// transpose (MulVecT, MulVecTPool), bit for bit. m stores every column,
// so it is dense exactly when it is at most maxDenseCols wide; a wider
// one keeps the CSR loop and the cached transpose.
func checkDenseProducts(t *testing.T, m *Rect, x, xt []float64, pool *Pool) {
	t.Helper()
	if m.dense != (m.cols <= maxDenseCols) {
		t.Fatalf("%dx%d: a Rect storing every column has dense = %v", m.rows, m.cols, m.dense)
	}
	want, got := make([]float64, m.rows), make([]float64, m.rows)
	csrLoop(m.rowPtr, m.colIdx, m.vals, want, x)
	m.MulVec(got, x)
	if !sameProducts(got, want) {
		t.Fatalf("%dx%d MulVec: %v, CSR loop %v", m.rows, m.cols, got, want)
	}
	clear(got)
	m.MulVecPool(pool, got, x)
	if !sameProducts(got, want) {
		t.Fatalf("%dx%d MulVecPool: %v, CSR loop %v", m.rows, m.cols, got, want)
	}

	tPtr, tIdx, tVals := transposeArrays(m.cols, m.rowPtr, m.colIdx, m.vals)
	wantT, gotT := make([]float64, m.cols), make([]float64, m.cols)
	csrLoop(tPtr, tIdx, tVals, wantT, xt)
	m.MulVecT(gotT, xt)
	if !sameProducts(gotT, wantT) {
		t.Fatalf("%dx%d MulVecT: %v, transpose product %v", m.rows, m.cols, gotT, wantT)
	}
	clear(gotT)
	m.MulVecTPool(pool, gotT, xt)
	if !sameProducts(gotT, wantT) {
		t.Fatalf("%dx%d MulVecTPool: %v, transpose product %v", m.rows, m.cols, gotT, wantT)
	}
	if m.dense && m.tr.Load() != nil {
		t.Fatalf("%dx%d: a dense Rect built a transpose", m.rows, m.cols)
	}
}

// TestRectDenseBitwise: on every width from 1 to 12 (the dense kernels
// up to eight, the CSR path past it), with row counts whose products
// run serially and ones a pool partitions, the products return the CSR
// loop's bits and the explicit transpose product's — on finite values
// and on specials in both the values and x.
func TestRectDenseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pool := vec.NewPoolMinChunk(3, 1) // partitions products of 2048 entries or more
	defer pool.Close()
	for cols := 1; cols <= 12; cols++ {
		for _, rows := range []int{1, 2, 9, 2048/cols + 37} {
			for _, special := range []bool{false, true} {
				m, x, xt := denseRectCase(rng, rows, cols, special)
				checkDenseProducts(t, m, x, xt, pool)
				if special {
					continue
				}
				y, yt := make([]float64, rows), make([]float64, cols)
				m.MulVec(y, x)
				m.MulVecT(yt, xt)
				if math.Float64bits(y[0]) != 0 || math.Float64bits(yt[0]) != 0 {
					t.Fatalf("%dx%d: sums of −0 products are %g and %g, want +0", rows, cols, y[0], yt[0])
				}
			}
		}
	}
}

// FuzzRectDense holds the dense kernels (and, past eight columns, the
// CSR path) to the same oracle on any shape and values: the bytes give the shape and then the values, cycled.
func FuzzRectDense(f *testing.F) {
	f.Add(uint8(6), uint16(50), []byte{1, 2, 3})
	f.Add(uint8(9), uint16(300), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1))))
	f.Add(uint8(1), uint16(1), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Add(uint8(12), uint16(171), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	pool := vec.NewPoolMinChunk(3, 1)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, c uint8, r uint16, raw []byte) {
		cols, rows := 1+int(c)%16, 1+int(r)%600
		var words []float64
		for len(raw) >= 8 {
			words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		for _, b := range raw {
			words = append(words, denseSpecials[int(b)%len(denseSpecials)])
		}
		if len(words) == 0 {
			words = []float64{1}
		}
		next := 0
		fill := func(v []float64) []float64 {
			for i := range v {
				v[i] = words[next%len(words)] * float64(1+next%7)
				next++
			}
			return v
		}
		m := denseFromData(rows, cols, fill(make([]float64, rows*cols)))
		checkDenseProducts(t, m, fill(make([]float64, cols)), fill(make([]float64, rows)), pool)
	})
}

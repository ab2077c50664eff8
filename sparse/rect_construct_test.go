package sparse_test

import (
	"testing"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// jacobianData is a rows×cols row-major array with no zero entry.
func jacobianData(rows, cols int) []float64 {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = 1 + float64(i%13)/7
	}
	return data
}

// TestDenseRectConstructors: every way to build a Rect — NewRect (rows
// in any order), RectFromDense, the upload decoder, CloneValues — yields
// a dense Rect when every row stores every column, and a Rect missing
// one entry, or storing one column twice, stays on the CSR path, whose
// transpose product builds the transpose. So does a Rect that stores
// every column but is wider than eight.
func TestDenseRectConstructors(t *testing.T) {
	const rows, cols = 40, 6
	data := jacobianData(rows, cols)
	rowPtr, colIdx := make([]int, rows+1), make([]int, 0, rows*cols)
	vals := make([]float64, 0, rows*cols)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = (i + 1) * cols
		for j := cols - 1; j >= 0; j-- { // reversed: NewRect sorts the row
			colIdx, vals = append(colIdx, j), append(vals, data[i*cols+j])
		}
	}
	fromDense := sparse.RectFromDense(rows, cols, data)
	dec, err := sparse.EncodeRect(fromDense).DecodeGeneral()
	if err != nil {
		t.Fatal(err)
	}
	decoded, ok := dec.(*sparse.Rect)
	if !ok {
		t.Fatalf("the decoder returned a %T, want *sparse.Rect", dec)
	}
	for _, c := range []struct {
		name string
		m    *sparse.Rect
	}{
		{"NewRect", sparse.NewRect(rows, cols, rowPtr, colIdx, vals)},
		{"RectFromDense", fromDense},
		{"decoder", decoded},
		{"CloneValues", fromDense.CloneValues()},
	} {
		if !c.m.IsDense() {
			t.Errorf("%s: a Rect storing every column is not dense", c.name)
		}
	}

	twice := append([]int(nil), colIdx...)
	twice[5*cols+1] = twice[5*cols] // row 5 stores column 5 twice and column 4 not at all
	repeated := sparse.NewRect(rows, cols, append([]int(nil), rowPtr...), twice, append([]float64(nil), vals...))
	data[3*cols+2] = 0 // RectFromDense drops it
	holed := sparse.RectFromDense(rows, cols, data)
	wide := sparse.RectFromDense(rows, 9, jacobianData(rows, 9))
	for name, m := range map[string]*sparse.Rect{"a repeated column": repeated, "a missing entry": holed, "nine columns": wide} {
		if m.IsDense() {
			t.Errorf("a Rect with %s is dense", name)
		}
		m.MulVecT(make([]float64, m.Cols()), make([]float64, rows))
		if !m.HasTranspose() {
			t.Errorf("a Rect with %s: its transpose product built no transpose", name)
		}
	}
}

// TestDenseRectBuildsNoTranspose: a dense Rect has no transpose after
// either transpose product, SetValues, Scale and CloneValues, and none
// of its products or value updates allocates.
func TestDenseRectBuildsNoTranspose(t *testing.T) {
	const rows, cols = 5000, 6
	m := sparse.RectFromDense(rows, cols, jacobianData(rows, cols))
	pool := vec.NewPoolMinChunk(2, 1)
	defer pool.Close()
	x, xt := make([]float64, cols), make([]float64, rows)
	y, yt := make([]float64, rows), make([]float64, cols)
	for i := range xt {
		xt[i] = float64(i%5) - 2
	}
	next := append([]float64(nil), m.Values()...)
	for name, op := range map[string]func(){
		"MulVec":      func() { m.MulVec(y, x) },
		"MulVecPool":  func() { m.MulVecPool(pool, y, x) },
		"MulVecT":     func() { m.MulVecT(yt, xt) },
		"MulVecTPool": func() { m.MulVecTPool(pool, yt, xt) },
		"SetValues":   func() { m.SetValues(next) },
		"Scale":       func() { m.Scale(1) },
	} {
		if n := testing.AllocsPerRun(5, op); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
		if m.HasTranspose() {
			t.Fatalf("a dense Rect has a transpose after %s", name)
		}
	}
	c := m.CloneValues()
	c.MulVecT(yt, xt)
	if m.HasTranspose() || c.HasTranspose() {
		t.Fatal("a dense Rect or its clone has a transpose after CloneValues and MulVecT")
	}
}

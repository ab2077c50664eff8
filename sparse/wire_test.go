package sparse_test

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"vrcg/sparse"
)

// matEqual compares two matrices entrywise.
func matEqual(t *testing.T, a, b *sparse.CSR) {
	t.Helper()
	if a.Dim() != b.Dim() {
		t.Fatalf("dims %d vs %d", a.Dim(), b.Dim())
	}
	for i := 0; i < a.Dim(); i++ {
		for j := 0; j < a.Dim(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("entry (%d,%d): %g vs %g", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

func TestWireCSRRoundTrip(t *testing.T) {
	a := sparse.Poisson2D(5)
	blob, err := json.Marshal(sparse.EncodeCSR(a))
	if err != nil {
		t.Fatal(err)
	}
	var w sparse.WireMatrix
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	got, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	matEqual(t, a, got)
}

func TestWireCOODecode(t *testing.T) {
	// 2x2 SPD with a duplicate entry that must be summed.
	w := sparse.WireMatrix{
		Format: sparse.WireCOO,
		N:      2,
		Rows:   []int{0, 0, 1, 1, 0},
		Cols:   []int{0, 1, 0, 1, 0},
		Vals:   []float64{1.5, -1, -1, 2, 0.5},
	}
	got, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 2 || got.At(0, 1) != -1 || got.At(1, 1) != 2 {
		t.Fatalf("bad decode: %v %v %v", got.At(0, 0), got.At(0, 1), got.At(1, 1))
	}
}

func TestWireMatrixMarketDecode(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2\n2 1 -1\n2 2 2\n"
	w := sparse.WireMatrix{Format: sparse.WireMatrixMarket, MatrixMarket: src}
	got, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != 2 || got.At(0, 1) != -1 {
		t.Fatalf("bad decode: n=%d a01=%v", got.Dim(), got.At(0, 1))
	}
}

func TestWireDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]sparse.WireMatrix{
		"unknown format": {Format: "dense", N: 2},
		"csr bad n":      {Format: sparse.WireCSR, N: 0},
		"csr short row_ptr": {Format: sparse.WireCSR, N: 2,
			RowPtr: []int{0, 1}, ColIdx: []int{0}, Vals: []float64{1}},
		"csr non-monotone": {Format: sparse.WireCSR, N: 2,
			RowPtr: []int{0, 2, 1}, ColIdx: []int{0, 1}, Vals: []float64{1, 1}},
		"csr col out of range": {Format: sparse.WireCSR, N: 2,
			RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 5}, Vals: []float64{1, 1}},
		"csr length mismatch": {Format: sparse.WireCSR, N: 2,
			RowPtr: []int{0, 1, 3}, ColIdx: []int{0, 1}, Vals: []float64{1, 1}},
		"csr duplicate column": {Format: sparse.WireCSR, N: 2,
			RowPtr: []int{0, 2, 3}, ColIdx: []int{0, 0, 1}, Vals: []float64{1, 1, 2}},
		"coo ragged": {Format: sparse.WireCOO, N: 2,
			Rows: []int{0}, Cols: []int{0, 1}, Vals: []float64{1}},
		"coo out of range": {Format: sparse.WireCOO, N: 2,
			Rows: []int{2}, Cols: []int{0}, Vals: []float64{1}},
		"mm garbage": {Format: sparse.WireMatrixMarket, MatrixMarket: "not a matrix"},
	}
	for name, w := range cases {
		if _, err := w.Decode(); !errors.Is(err, sparse.ErrWire) {
			t.Errorf("%s: want ErrWire, got %v", name, err)
		}
	}
}

// TestWireDecodeLimited: a tiny envelope declaring a huge order is
// rejected before any order-sized allocation, for every format.
func TestWireDecodeLimited(t *testing.T) {
	huge := []sparse.WireMatrix{
		{Format: sparse.WireCOO, N: 2_000_000_000},
		{Format: sparse.WireCSR, N: 2_000_000_000},
		{Format: sparse.WireMatrixMarket,
			MatrixMarket: "%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 0\n"},
	}
	for i, w := range huge {
		if _, err := w.DecodeLimited(1 << 20); !errors.Is(err, sparse.ErrWire) {
			t.Errorf("case %d: want ErrWire for oversized order, got %v", i, err)
		}
	}
	// Within the limit everything still decodes.
	ok := sparse.WireMatrix{Format: sparse.WireCOO, N: 2,
		Rows: []int{0, 1}, Cols: []int{0, 1}, Vals: []float64{1, 1}}
	if _, err := ok.DecodeLimited(4); err != nil {
		t.Fatal(err)
	}
}

func TestWireDecodeCopiesArrays(t *testing.T) {
	w := sparse.WireMatrix{
		Format: sparse.WireCSR,
		N:      2,
		RowPtr: []int{0, 1, 2},
		ColIdx: []int{0, 1},
		Vals:   []float64{3, 4},
	}
	m, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	w.Vals[0] = 99 // caller reuses its buffer; the matrix must not see it
	if m.At(0, 0) != 3 {
		t.Fatalf("decoded matrix aliases wire buffer: a00=%v", m.At(0, 0))
	}
}

// TestWireRectRoundTrip: rectangular envelopes survive JSON and decode
// back through DecodeGeneral to an identical *Rect.
func TestWireRectRoundTrip(t *testing.T) {
	m := sparse.RectFromDense(3, 2, []float64{
		1, 0,
		0, 2,
		3, 4,
	})
	raw, err := json.Marshal(sparse.EncodeRect(m))
	if err != nil {
		t.Fatal(err)
	}
	var w sparse.WireMatrix
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	got, err := w.DecodeGeneral()
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got.(*sparse.Rect)
	if !ok {
		t.Fatalf("DecodeGeneral returned %T, want *sparse.Rect", got)
	}
	if r.Rows() != 3 || r.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 3x2", r.Rows(), r.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if r.At(i, j) != m.At(i, j) {
				t.Fatalf("entry (%d,%d): %g vs %g", i, j, r.At(i, j), m.At(i, j))
			}
		}
	}
}

// TestWireRectCOO: the triplet form sums duplicates and sorts rows for
// rectangular shapes too.
func TestWireRectCOO(t *testing.T) {
	w := sparse.WireMatrix{
		Format: sparse.WireCOO,
		NRows:  2, NCols: 3,
		Rows: []int{1, 0, 1, 1},
		Cols: []int{2, 1, 0, 2},
		Vals: []float64{5, 7, 1, 6},
	}
	got, err := w.DecodeGeneral()
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*sparse.Rect)
	if r.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 (duplicates summed)", r.NNZ())
	}
	if r.At(0, 1) != 7 || r.At(1, 0) != 1 || r.At(1, 2) != 11 {
		t.Fatalf("decoded entries wrong: At(0,1)=%g At(1,0)=%g At(1,2)=%g", r.At(0, 1), r.At(1, 0), r.At(1, 2))
	}
}

// TestWireGeneralShapes: DecodeGeneral keeps *CSR for square shapes,
// Decode rejects rectangular envelopes, and shape declarations must be
// coherent.
func TestWireGeneralShapes(t *testing.T) {
	sq := sparse.EncodeCSR(sparse.Poisson1D(4))

	got, err := sq.DecodeGeneral()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(*sparse.CSR); !ok {
		t.Fatalf("square DecodeGeneral returned %T, want *sparse.CSR", got)
	}

	rect := sparse.EncodeRect(sparse.RectFromDense(3, 2, []float64{1, 0, 0, 2, 3, 4}))
	if _, err := rect.Decode(); !errors.Is(err, sparse.ErrWire) {
		t.Errorf("Decode of a rectangular envelope = %v, want ErrWire", err)
	}

	// n_rows/n_cols spelling of a square shape still decodes to CSR.
	sq2 := *sq
	sq2.NRows, sq2.NCols, sq2.N = sq.N, sq.N, 0
	if _, err := sq2.Decode(); err != nil {
		t.Errorf("square-by-n_rows Decode: %v", err)
	}

	bad := *sq
	bad.NRows, bad.NCols = sq.N+1, sq.N+1 // disagrees with N
	if _, err := bad.Decode(); !errors.Is(err, sparse.ErrWire) {
		t.Errorf("conflicting shape Decode = %v, want ErrWire", err)
	}

	mm := sparse.WireMatrix{Format: sparse.WireMatrixMarket, NRows: 3, NCols: 2}
	if _, err := mm.DecodeGeneral(); !errors.Is(err, sparse.ErrWire) {
		t.Errorf("rectangular matrixmarket DecodeGeneral = %v, want ErrWire", err)
	}

	// The dimension bound applies to both dimensions.
	if _, err := rect.DecodeGeneralLimited(2); !errors.Is(err, sparse.ErrWire) {
		t.Errorf("DecodeGeneralLimited(2) on 3x2 = %v, want ErrWire", err)
	}
}

// encoded is the "csr" envelope of a decoded matrix.
func encoded(t *testing.T, m sparse.Matrix) *sparse.WireMatrix {
	t.Helper()
	switch a := m.(type) {
	case *sparse.CSR:
		return sparse.EncodeCSR(a)
	case *sparse.Rect:
		return sparse.EncodeRect(a)
	}
	t.Fatalf("decoded to %T", m)
	return nil
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameRows reports whether the first rows rows of two "csr" envelopes
// store the same entries, bit for bit.
func sameRows(a, b *sparse.WireMatrix, rows int) bool {
	if len(a.RowPtr) <= rows || len(b.RowPtr) <= rows || !slices.Equal(a.RowPtr[:rows+1], b.RowPtr[:rows+1]) {
		return false
	}
	nnz := a.RowPtr[rows]
	return slices.Equal(a.ColIdx[:nnz], b.ColIdx[:nnz]) && sameBits(a.Vals[:nnz], b.Vals[:nnz])
}

// TestWireCOOOneSemantics: the same triplets decode to the same stored
// entries as a rectangle and padded to a square — duplicates summed in
// the same order, entries that sum to exactly zero dropped — so NNZ
// agrees too.
func TestWireCOOOneSemantics(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		r, c       []int
		v          []float64
	}{
		{"cancelling duplicates", 2, 3, []int{1, 0, 1}, []int{2, 0, 2}, []float64{2, 1, -2}},
		{"explicit zero", 3, 2, []int{0, 1, 2, 2}, []int{1, 0, 1, 0}, []float64{0, 2, 3, -0.0}},
		{"duplicates summed in order", 2, 4, []int{1, 0, 1, 1, 1}, []int{3, 2, 0, 3, 3}, []float64{0.1, 7, 1, 0.2, 0.3}},
		{"a row that cancels whole", 4, 1, []int{3, 0, 3, 2}, []int{0, 0, 0, 0}, []float64{1e308, 5, -1e308, 0.5}},
	} {
		rect := sparse.WireMatrix{Format: sparse.WireCOO, NRows: tc.rows, NCols: tc.cols, Rows: tc.r, Cols: tc.c, Vals: tc.v}
		sq := sparse.WireMatrix{Format: sparse.WireCOO, N: max(tc.rows, tc.cols), Rows: tc.r, Cols: tc.c, Vals: tc.v}
		rm, err := rect.DecodeGeneral()
		if err != nil {
			t.Fatalf("%s: rectangle: %v", tc.name, err)
		}
		sm, err := sq.Decode()
		if err != nil {
			t.Fatalf("%s: square: %v", tc.name, err)
		}
		r := rm.(*sparse.Rect)
		if r.NNZ() != sm.NNZ() {
			t.Errorf("%s: nnz %d as a rectangle, %d as a square", tc.name, r.NNZ(), sm.NNZ())
		}
		if !sameRows(sparse.EncodeRect(r), sparse.EncodeCSR(sm), tc.rows) {
			t.Errorf("%s: the rectangle's rows differ from the square's", tc.name)
		}
	}
}

// wireFromBytes decodes fuzz input into an envelope and an order limit.
// Byte 0 picks the format (low two bits), how the shape is spelled (the
// next two) and a corruption of row_ptr (the two after); bytes 1–3 give
// rows+1, cols+1 (11 meaning one column past the 32-bit index) and the
// limit; the rest is the MatrixMarket document,
// or (row, column, value) triplets that a "csr" envelope carries as row
// counts, column indices and values in the order given.
func wireFromBytes(data []byte) (w sparse.WireMatrix, limit int) {
	values := []float64{1, -1, 0.5, -0.5, 0, math.Copysign(0, -1), 3, 1e308, -1e308, math.NaN(), math.Inf(1), 5e-324}
	var hdr [4]byte
	copy(hdr[:], data)
	data = data[min(len(data), 4):]
	rows, cols := int(hdr[1]%12)-1, int(hdr[2]%12)-1
	if cols == 10 {
		cols = math.MaxInt32 + 1 // past the 32-bit column index
	}
	limit = int(hdr[3] % 12)
	w.Format = []string{sparse.WireCSR, sparse.WireCOO, sparse.WireMatrixMarket, "dense"}[hdr[0]%4]
	switch hdr[0] / 4 % 4 {
	case 0:
		w.N = rows
	case 1:
		w.NRows, w.NCols = rows, cols
	case 2:
		w.N, w.NRows, w.NCols = rows, rows, cols
	case 3:
		w.N, w.NRows, w.NCols = cols, rows, cols
	}
	if w.Format == sparse.WireMatrixMarket {
		w.MatrixMarket = string(data)
		return w, limit
	}
	for ; len(data) >= 3; data = data[3:] {
		w.Rows = append(w.Rows, int(data[0])%max(1, rows+1))
		w.Cols = append(w.Cols, int(data[1])%max(1, cols+1))
		w.Vals = append(w.Vals, values[int(data[2])%len(values)])
	}
	if w.Format == sparse.WireCSR {
		w.RowPtr = make([]int, max(0, rows+1))
		for _, i := range w.Rows {
			if i+1 < len(w.RowPtr) {
				w.RowPtr[i+1]++
			}
		}
		for i := 1; i < len(w.RowPtr); i++ {
			w.RowPtr[i] += w.RowPtr[i-1]
		}
		switch hdr[0] / 16 % 4 {
		case 1:
			if len(w.RowPtr) > 1 {
				w.RowPtr[1] += 2
			}
		case 2:
			if len(w.RowPtr) > 0 {
				w.RowPtr = w.RowPtr[1:]
			}
		}
		w.ColIdx, w.Rows, w.Cols = w.Cols, nil, nil
	}
	return w, limit
}

// TestWireColumnBound: a column index is 32 bits, so an envelope that
// declares more columns than that is an ErrWire, found before anything
// the size of that dimension is allocated — by DecodeGeneralLimited(0)
// as well, which has no order limit to stop it first.
func TestWireColumnBound(t *testing.T) {
	wide := math.MaxInt32 + 1
	for _, w := range []sparse.WireMatrix{
		{Format: sparse.WireCSR, NRows: 1, NCols: wide, RowPtr: []int{0, 0}},
		{Format: sparse.WireCOO, NRows: 1, NCols: wide, Rows: []int{0}, Cols: []int{wide - 1}, Vals: []float64{1}},
		{Format: sparse.WireCOO, NRows: wide, NCols: 1},
		{Format: sparse.WireCOO, N: wide},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := w.DecodeGeneralLimited(0)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, sparse.ErrWire) {
			t.Errorf("%s %dx%d (n %d): decoded %T, err %v; want an ErrWire", w.Format, w.NRows, w.NCols, w.N, m, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s %dx%d (n %d): allocated %d bytes before refusing", w.Format, w.NRows, w.NCols, w.N, grew)
		}
	}
}

// FuzzWireMatrixDecode holds the upload decoder to its contract on any
// envelope and limit: no panic, every error an ErrWire, a decoded
// matrix that re-encodes and decodes to the same arrays, and triplets
// that decode as a rectangle to what they decode to padded to a square.
func FuzzWireMatrixDecode(f *testing.F) {
	f.Add([]byte{0, 4, 4, 0, 0, 0, 0, 1, 1, 0, 2, 2, 6, 2, 1, 1}) // square csr
	f.Add([]byte{4, 3, 4, 0, 1, 2, 0, 0, 1, 0, 2, 0, 0})          // 2x3 csr
	f.Add([]byte{48, 4, 4, 0, 0, 1, 0, 0, 1, 1})                  // corrupted row_ptr
	f.Add([]byte{5, 3, 4, 0, 1, 2, 0, 0, 0, 0, 1, 2, 1, 0, 1, 4}) // 2x3 coo: cancels, explicit 0
	f.Add([]byte{1, 3, 3, 2, 0, 0, 0, 0, 0, 1, 1, 1, 5, 1, 0, 7}) // square coo under a limit
	f.Add([]byte{13, 4, 2, 0, 2, 1, 9, 0, 0, 10, 1, 1, 0})        // 3x1 coo, NaN and Inf
	f.Add(append([]byte{2, 0, 0, 3}, "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 -1\n"...))
	f.Add(append([]byte{6, 3, 4, 0}, "%%MatrixMarket matrix coordinate real general\n2 3 0\n"...))
	f.Add([]byte{3, 4, 4, 0})
	f.Add([]byte{4, 3, 11, 0, 0, 0, 0}) // 2 x (MaxInt32+1) csr: past the 32-bit column index
	f.Fuzz(func(t *testing.T, data []byte) {
		w, limit := wireFromBytes(data)
		m, err := w.DecodeGeneralLimited(limit)
		if err != nil {
			if !errors.Is(err, sparse.ErrWire) {
				t.Fatalf("error does not wrap ErrWire: %v", err)
			}
			return
		}
		enc := encoded(t, m)
		back, err := enc.DecodeGeneralLimited(limit)
		if err != nil {
			t.Fatalf("the re-encoded %T does not decode: %v", m, err)
		}
		again := encoded(t, back)
		if enc.N != again.N || enc.NRows != again.NRows || enc.NCols != again.NCols || !sameRows(enc, again, len(enc.RowPtr)-1) {
			t.Fatalf("the re-encoded %T decodes to other arrays", m)
		}
		if w.Format != sparse.WireCOO {
			return
		}
		rows, cols := sparse.Dims(m)
		sq := w
		sq.N, sq.NRows, sq.NCols = max(rows, cols), 0, 0
		sm, err := sq.DecodeLimited(limit)
		if err != nil {
			t.Fatalf("decoded %dx%d but not padded to a square: %v", rows, cols, err)
		}
		if sm.NNZ() != len(enc.Vals) || !sameRows(enc, sparse.EncodeCSR(sm), rows) {
			t.Fatalf("%dx%d: the triplets store other entries padded to a square", rows, cols)
		}
	})
}

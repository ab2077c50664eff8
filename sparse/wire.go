package sparse

import (
	"errors"
	"fmt"
	"strings"
)

// This file is the matrix wire codec: a JSON-friendly envelope
// (WireMatrix) that carries a sparse matrix across a network boundary
// in any of three formats, with full validation on decode — the
// constructors in this package panic on malformed input (a programming
// error in process), but bytes off the wire are data, not code, and
// must fail with errors.

// Wire format names accepted by WireMatrix.
const (
	// WireCSR carries compressed sparse row arrays directly.
	WireCSR = "csr"
	// WireCOO carries coordinate triplets (duplicates are summed).
	WireCOO = "coo"
	// WireMatrixMarket carries a MatrixMarket coordinate-format
	// document as text.
	WireMatrixMarket = "matrixmarket"
)

// ErrWire reports a malformed wire matrix; every Decode failure wraps
// it.
var ErrWire = errors.New("sparse: malformed wire matrix")

// WireMatrix is the JSON envelope for a sparse matrix. Format selects
// which fields are meaningful:
//
//   - "csr": N, RowPtr (length rows+1), ColIdx, Vals
//   - "coo": N, Rows, Cols, Vals (parallel triplet arrays)
//   - "matrixmarket": MatrixMarket (the .mtx document, verbatim)
//
// Square matrices declare N alone. Rectangular ones (least-squares
// operators) declare NRows and NCols instead and must decode through
// DecodeGeneral; the MatrixMarket form stays square-only. Decode
// validates and builds the CSR form; EncodeCSR produces the "csr"
// envelope from a matrix.
type WireMatrix struct {
	Format string `json:"format"`
	N      int    `json:"n,omitempty"`

	// NRows/NCols declare a rectangular shape for formats "csr" and
	// "coo"; both zero means square of order N.
	NRows int `json:"n_rows,omitempty"`
	NCols int `json:"n_cols,omitempty"`

	// CSR fields.
	RowPtr []int `json:"row_ptr,omitempty"`
	ColIdx []int `json:"col_idx,omitempty"`

	// COO fields (Vals is shared with the CSR form).
	Rows []int `json:"rows,omitempty"`
	Cols []int `json:"cols,omitempty"`

	Vals []float64 `json:"vals,omitempty"`

	// MatrixMarket is the verbatim .mtx text for format
	// "matrixmarket".
	MatrixMarket string `json:"matrix_market,omitempty"`
}

// EncodeCSR wraps a matrix in its wire envelope (format "csr"). The
// arrays are shared with the matrix, not copied; treat the result as
// read-only.
func EncodeCSR(m *CSR) *WireMatrix {
	return &WireMatrix{
		Format: WireCSR,
		N:      m.n,
		RowPtr: m.rowPtr,
		ColIdx: m.colIdx,
		Vals:   m.vals,
	}
}

// EncodeRect wraps a rectangular matrix in its wire envelope (format
// "csr" with NRows/NCols). The arrays are shared with the matrix, not
// copied; treat the result as read-only.
func EncodeRect(m *Rect) *WireMatrix {
	return &WireMatrix{
		Format: WireCSR,
		NRows:  m.rows,
		NCols:  m.cols,
		RowPtr: m.rowPtr,
		ColIdx: m.colIdx,
		Vals:   m.vals,
	}
}

// Decode validates the envelope and returns the matrix in CSR form.
// All failures wrap ErrWire. The order is unbounded; network layers
// should use DecodeLimited, since a tiny envelope can declare a huge n
// whose CSR arrays alone would exhaust memory. Envelopes declaring a
// rectangular shape are rejected here — use DecodeGeneral.
func (w *WireMatrix) Decode() (*CSR, error) {
	return w.DecodeLimited(0)
}

// DecodeGeneral decodes either a square or a rectangular envelope,
// returning *CSR for square shapes and *Rect for rectangular ones.
// See DecodeGeneralLimited for the bounded variant network layers use.
func (w *WireMatrix) DecodeGeneral() (Matrix, error) {
	return w.DecodeGeneralLimited(0)
}

// DecodeGeneralLimited is DecodeGeneral with an upper bound on both
// dimensions (0 means unlimited), enforced before any
// dimension-sized allocation.
func (w *WireMatrix) DecodeGeneralLimited(maxOrder int) (Matrix, error) {
	return w.decode(maxOrder, true)
}

// DecodeLimited is Decode with an upper bound on the matrix order
// (0 means unlimited). The bound is enforced before any order-sized
// allocation happens, for every wire format — including the dimensions
// declared inside a MatrixMarket header.
func (w *WireMatrix) DecodeLimited(maxOrder int) (*CSR, error) {
	m, err := w.decode(maxOrder, false)
	if err != nil {
		return nil, err
	}
	return m.(*CSR), nil
}

// decode is every Decode variant: one shape, one validator per format,
// and a *CSR whenever the shape is square, however it is spelled — so
// every square consumer (preconditioners, symmetry probes) keeps
// working. A rectangular shape is an error unless general is set.
func (w *WireMatrix) decode(maxOrder int, general bool) (Matrix, error) {
	rows, cols, err := w.shape()
	if err != nil {
		return nil, err
	}
	if rows != cols && !general {
		return nil, fmt.Errorf("%w: envelope declares a %dx%d rectangular shape; decode it with DecodeGeneral",
			ErrWire, rows, cols)
	}
	switch w.Format {
	case WireCSR, WireCOO:
	case WireMatrixMarket:
		if rows != cols {
			return nil, fmt.Errorf("%w: matrixmarket wire form is square-only (use csr or coo with n_rows/n_cols)", ErrWire)
		}
		if maxOrder > 0 {
			if n, err := peekMatrixMarketOrder(w.MatrixMarket); err == nil {
				// Parse errors fall through to the real reader for a
				// better message.
				if err := checkOrder(n, maxOrder); err != nil {
					return nil, err
				}
			}
		}
		m, err := ReadMatrixMarket(strings.NewReader(w.MatrixMarket))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWire, err)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown format %q (want %s, %s, or %s)",
			ErrWire, w.Format, WireCSR, WireCOO, WireMatrixMarket)
	}
	if rows <= 0 {
		return nil, fmt.Errorf("%w: %s needs n > 0, got %d", ErrWire, w.Format, rows)
	}
	if err := checkOrder(max(rows, cols), maxOrder); err != nil {
		return nil, err
	}
	var rowPtr, colIdx []int
	var vals []float64
	if w.Format == WireCSR {
		rowPtr, colIdx, vals, err = w.csrArrays(rows, cols)
	} else {
		rowPtr, colIdx, vals, err = w.cooArrays(rows, cols)
	}
	if err != nil {
		return nil, err
	}
	if rows == cols {
		m := &CSR{n: rows, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
		m.warmPartition()
		return m, nil
	}
	return &Rect{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}, nil
}

// shape returns the declared rows × cols: N × N when the envelope
// declares N alone, else NRows × NCols, both positive, with any N
// beside them equal to NRows.
func (w *WireMatrix) shape() (rows, cols int, err error) {
	if w.NRows == 0 && w.NCols == 0 {
		return w.N, w.N, nil
	}
	if w.NRows <= 0 || w.NCols <= 0 {
		return 0, 0, fmt.Errorf("%w: a declared shape needs n_rows > 0 and n_cols > 0, got %dx%d",
			ErrWire, w.NRows, w.NCols)
	}
	if w.N != 0 && w.N != w.NRows {
		return 0, 0, fmt.Errorf("%w: n %d disagrees with n_rows %d (declare one shape)", ErrWire, w.N, w.NRows)
	}
	return w.NRows, w.NCols, nil
}

func checkOrder(n, maxOrder int) error {
	if maxOrder > 0 && n > maxOrder {
		return fmt.Errorf("%w: order %d exceeds the permitted maximum %d", ErrWire, n, maxOrder)
	}
	return nil
}

// peekMatrixMarketOrder reads just the size line of a MatrixMarket
// document, so DecodeLimited can bound the order before the full parse
// allocates anything order-sized.
func peekMatrixMarketOrder(src string) (int, error) {
	first := true
	for len(src) > 0 {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		line = strings.TrimSpace(line)
		if first {
			first = false
			continue // header line
		}
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		var rows, cols, nnz int
		if _, err := fmt.Sscanf(line, "%d %d %d", &rows, &cols, &nnz); err != nil {
			return 0, fmt.Errorf("sparse: bad size line %q", line)
		}
		if cols > rows {
			rows = cols
		}
		return rows, nil
	}
	return 0, fmt.Errorf("sparse: missing size line")
}

// csrArrays validates the "csr" arrays of a rows × cols matrix and
// returns private copies with every row in column order. The arrays are
// cloned because wire buffers often alias decoder scratch the caller
// will reuse. The form asserts an assembled matrix, so a repeated
// column is an error: kept, it would make MulVec (which sums it)
// disagree with At and Diag (which see one entry).
func (w *WireMatrix) csrArrays(rows, cols int) (rowPtr, colIdx []int, vals []float64, err error) {
	if len(w.RowPtr) != rows+1 {
		return nil, nil, nil, fmt.Errorf("%w: row_ptr length %d, want rows+1 = %d", ErrWire, len(w.RowPtr), rows+1)
	}
	if w.RowPtr[0] != 0 {
		return nil, nil, nil, fmt.Errorf("%w: row_ptr must start at 0, got %d", ErrWire, w.RowPtr[0])
	}
	for i := 0; i < rows; i++ {
		if w.RowPtr[i+1] < w.RowPtr[i] {
			return nil, nil, nil, fmt.Errorf("%w: row_ptr not monotone at row %d (%d then %d)",
				ErrWire, i, w.RowPtr[i], w.RowPtr[i+1])
		}
	}
	nnz := w.RowPtr[rows]
	if len(w.ColIdx) != nnz || len(w.Vals) != nnz {
		return nil, nil, nil, fmt.Errorf("%w: row_ptr promises %d entries but col_idx has %d and vals has %d",
			ErrWire, nnz, len(w.ColIdx), len(w.Vals))
	}
	for k, j := range w.ColIdx {
		if j < 0 || j >= cols {
			return nil, nil, nil, fmt.Errorf("%w: col_idx[%d] = %d outside [0,%d)", ErrWire, k, j, cols)
		}
	}
	rowPtr = append([]int(nil), w.RowPtr...)
	colIdx = append([]int(nil), w.ColIdx...)
	vals = append([]float64(nil), w.Vals...)
	sortRows(rowPtr, colIdx, vals)
	for i := 0; i < rows; i++ {
		for p := rowPtr[i] + 1; p < rowPtr[i+1]; p++ {
			if colIdx[p] == colIdx[p-1] {
				return nil, nil, nil, fmt.Errorf("%w: duplicate entry (%d,%d) in csr form (use coo to sum duplicates)",
					ErrWire, i, colIdx[p])
			}
		}
	}
	return rowPtr, colIdx, vals, nil
}

// cooArrays validates the "coo" triplets of a rows × cols matrix and
// assembles them as COO.ToCSR does, whatever the shape: duplicates
// summed, exact zeros dropped.
func (w *WireMatrix) cooArrays(rows, cols int) (rowPtr, colIdx []int, vals []float64, err error) {
	if len(w.Rows) != len(w.Cols) || len(w.Rows) != len(w.Vals) {
		return nil, nil, nil, fmt.Errorf("%w: coo triplet arrays disagree: rows %d, cols %d, vals %d",
			ErrWire, len(w.Rows), len(w.Cols), len(w.Vals))
	}
	for k := range w.Rows {
		if i, j := w.Rows[k], w.Cols[k]; i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, nil, nil, fmt.Errorf("%w: entry %d at (%d,%d) outside %dx%d", ErrWire, k, i, j, rows, cols)
		}
	}
	rowPtr, colIdx, vals = assemble(rows, w.Rows, w.Cols, w.Vals)
	return rowPtr, colIdx, vals, nil
}

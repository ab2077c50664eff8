package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vrcg/internal/vec"
)

// This file implements the NIST Matrix Market exchange format
// (coordinate, real, general/symmetric) so the solvers can consume
// matrices from the standard sparse collections, and array-format
// vectors for right-hand sides.

// ReadMatrixMarket parses a Matrix Market coordinate-format matrix. It
// accepts "general" and "symmetric" qualifiers (symmetric entries are
// mirrored), "real", "integer" or "pattern" fields (pattern entries get
// value 1), and requires a square matrix.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty Matrix Market stream")
	}
	headerLine := strings.TrimSpace(sc.Text())
	header := strings.Fields(strings.ToLower(headerLine))
	if len(header) < 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("sparse: bad Matrix Market header %q", headerLine)
	}
	if header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only 'matrix coordinate' supported, got %q", headerLine)
	}
	field := header[3] // real | integer | pattern
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field type %q", field)
	}
	sym := header[4] // general | symmetric
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", sym)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d %d", &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %v", line, err)
		}
		break
	}
	if rows == 0 {
		return nil, fmt.Errorf("sparse: missing size line")
	}
	if rows != cols {
		return nil, fmt.Errorf("sparse: matrix is %dx%d, need square", rows, cols)
	}
	if rows < 0 || rows > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: order %d outside [1, %d]", rows, math.MaxInt32)
	}

	coo := NewCOO(rows)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		// Matrix Market is 1-based.
		if sym == "symmetric" && i != j {
			coo.AddSym(i-1, j-1, v)
		} else {
			coo.Add(i-1, j-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: read error: %v", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: header promised %d entries, found %d", nnz, read)
	}
	return coo.ToCSR(), nil
}

// WriteMatrixMarket emits the matrix in coordinate real format. When
// symmetric is true only the lower triangle is written with the
// "symmetric" qualifier (the matrix must actually be symmetric; the
// caller can check with IsSymmetric).
func WriteMatrixMarket(w io.Writer, m *CSR, symmetric bool) error {
	qual := "general"
	if symmetric {
		qual = "symmetric"
	}
	n := m.Dim()
	// Count the entries to be written.
	count := 0
	for i := 0; i < n; i++ {
		m.ScanRow(i, func(j int, _ float64) {
			if !symmetric || j <= i {
				count++
			}
		})
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n", qual)
	fmt.Fprintf(bw, "%% written by vrcg\n")
	fmt.Fprintf(bw, "%d %d %d\n", n, n, count)
	var err error
	for i := 0; i < n && err == nil; i++ {
		m.ScanRow(i, func(j int, v float64) {
			if err != nil || (symmetric && j > i) {
				return
			}
			_, err = fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, v)
		})
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMatrixMarketVector parses a Matrix Market array-format real vector
// (one column).
func ReadMatrixMarketVector(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty vector stream")
	}
	header := strings.Fields(strings.ToLower(strings.TrimSpace(sc.Text())))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "array" {
		return nil, fmt.Errorf("sparse: expected 'matrix array' header")
	}
	var rows, cols int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d", &rows, &cols); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %v", line, err)
		}
		break
	}
	if cols != 1 {
		return nil, fmt.Errorf("sparse: vector must have one column, got %d", cols)
	}
	out := vec.New(rows)
	idx := 0
	for idx < rows && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad vector value %q: %v", line, err)
		}
		out[idx] = v
		idx++
	}
	if idx != rows {
		return nil, fmt.Errorf("sparse: vector promised %d values, found %d", rows, idx)
	}
	return out, nil
}

// WriteMatrixMarketVector emits a vector in array real format.
func WriteMatrixMarketVector(w io.Writer, v []float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix array real general\n")
	fmt.Fprintf(bw, "%d 1\n", len(v))
	for _, x := range v {
		if _, err := fmt.Fprintf(bw, "%.17g\n", x); err != nil {
			return err
		}
	}
	return bw.Flush()
}

package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomStructure draws a rows×cols CSR structure with, deliberately,
// some empty rows and some columns no row touches, plus values for it.
func randomStructure(rng *rand.Rand, rows, cols int) (rowPtr, colIdx []int, vals []float64) {
	deadCol := make([]bool, cols)
	for j := range deadCol {
		deadCol[j] = cols > 1 && rng.Intn(4) == 0
	}
	rowPtr = make([]int, rows+1)
	for i := 0; i < rows; i++ {
		if rng.Intn(5) != 0 { // one row in five stays empty
			for j := 0; j < cols; j++ {
				if !deadCol[j] && rng.Intn(3) == 0 {
					colIdx = append(colIdx, j)
					vals = append(vals, rng.NormFloat64())
				}
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx, vals
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// transposeUpdater is the part of Rect and CSR this test drives.
type transposeUpdater interface {
	TransposeMulVec
	SetValues([]float64)
	Scale(float64)
	Values() []float64
}

// TestValueUpdateRefreshesTransposeInPlace: after SetValues and after
// Scale, the cached transpose is the transpose a fresh matrix with the
// same values would build — same structure, same value bits, so the
// same MulVecT bits — and the update allocates nothing.
func TestValueUpdateRefreshesTransposeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(12)
		square := trial%2 == 1
		if square {
			cols = rows
		}
		rowPtr, colIdx, vals := randomStructure(rng, rows, cols)
		build := func(v []float64) (transposeUpdater, func() (ptr []int, idx []int32, tv []float64)) {
			v = append([]float64(nil), v...)
			if square {
				m := NewCSR(rows, rowPtr, colIdx, v)
				return m, func() ([]int, []int32, []float64) {
					tr := m.transpose().arrays.Load()
					return tr.rowPtr, tr.colIdx, tr.vals
				}
			}
			m := NewRect(rows, cols, rowPtr, colIdx, v)
			return m, func() ([]int, []int32, []float64) { tr := m.transpose(); return tr.rowPtr, tr.colIdx, tr.vals }
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		check := func(step string, got transposeUpdater, gotT func() ([]int, []int32, []float64)) {
			t.Helper()
			want, wantT := build(got.Values())
			gp, gi, gv := gotT()
			wp, wi, wv := wantT()
			if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gi, wi) || !sameBits(gv, wv) {
				t.Fatalf("trial %d (%dx%d) after %s: cached transpose differs from a fresh one", trial, rows, cols, step)
			}
			a, b := make([]float64, cols), make([]float64, cols)
			got.MulVecT(a, x)
			want.MulVecT(b, x)
			if !sameBits(a, b) {
				t.Fatalf("trial %d (%dx%d) after %s: MulVecT differs from a fresh matrix", trial, rows, cols, step)
			}
		}

		m, mT := build(vals)
		mT() // build the transpose, so the updates below have one to refresh
		next := make([]float64, len(vals))
		for i := range next {
			next[i] = rng.NormFloat64()
		}
		m.SetValues(next)
		check("SetValues", m, mT)
		m.Scale(-1.75)
		check("Scale", m, mT)
		m.SetValues(vals)
		check("SetValues back", m, mT)

		if n := testing.AllocsPerRun(5, func() { m.SetValues(next); m.Scale(0.5) }); n != 0 {
			t.Fatalf("trial %d: value update with a cached transpose allocates %v times, want 0", trial, n)
		}
	}
}

// TestValueUpdateWithoutTransposeBuildsNone: a matrix that never served
// a transpose product does not grow one because its values changed.
func TestValueUpdateWithoutTransposeBuildsNone(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, _ := randomRect(rng, 20, 5, 0.5)
	m.Scale(2)
	m.SetValues(append([]float64(nil), m.Values()...))
	if m.tr.Load() != nil {
		t.Fatal("Rect value update built a transpose nobody asked for")
	}
	c := Poisson1D(12)
	c.Scale(2)
	if c.tr.Load() != nil {
		t.Fatal("CSR value update built a transpose nobody asked for")
	}
}

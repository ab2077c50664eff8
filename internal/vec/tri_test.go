package vec

import (
	"fmt"
	"math"
	"testing"
)

// checkTriRun runs both bodies of the triangular run kernel on one run —
// rows rows of width entries at position lo of a vector that extends
// tail positions past the run, every entry reading a position outside
// the run — and reports the first element of the vector, the run's or
// not, that differs.
func checkTriRun(rows, width, lo, tail int, w float64, seed uint64, mode int) error {
	n := lo + rows + tail
	if width > 0 && n == rows {
		return nil // nowhere for an entry to point
	}
	want, d, vals := make([]float64, n), make([]float64, rows), make([]float64, rows*width)
	fillLeafOperand(want, seed, mode)
	fillLeafOperand(d, seed+1, mode)
	fillLeafOperand(vals, seed+2, mode)
	got := Clone(want)
	pos := make([]int32, rows*width)
	s := seed ^ 0x7e57
	for k := range pos {
		p := int(splitmix64(&s) % uint64(n-rows))
		if p >= lo {
			p += rows
		}
		pos[k] = int32(p)
	}
	triRunGo(want, lo, d, vals, pos, width, w)
	triRunAVX2(got, lo, d, vals, pos, width, w)
	for i := range want {
		if !sameFloat(want[i], got[i]) {
			return fmt.Errorf("element %d (run is %d:%d): go %x (%g), asm %x (%g)", i, lo, lo+rows,
				math.Float64bits(want[i]), want[i], math.Float64bits(got[i]), got[i])
		}
	}
	return nil
}

// TestTriRunBitwise: on run lengths 0-9 and around multiples of the
// register width, every width with a Go body of its own and the generic
// one, both finishes and every value mix, the assembly body of the
// triangular sweep writes the bits the Go body writes and nothing else.
func TestTriRunBitwise(t *testing.T) {
	needAssembly(t)
	lengths := []int{15, 16, 17, 63, 64, 65, 1023, 1024, 1025}
	for n := 0; n <= 9; n++ {
		lengths = append(lengths, n)
	}
	for _, rows := range lengths {
		for width := 0; width <= 5; width++ {
			for _, w := range []float64{1, 1.5, -0.25} {
				for mode := 0; mode < leafModes; mode++ {
					for _, lo := range []int{0, 3} {
						seed := uint64(rows)<<20 | uint64(width)<<12 | uint64(mode)<<4 | uint64(lo)
						if err := checkTriRun(rows, width, lo, 5, w, seed, mode); err != nil {
							t.Fatalf("rows=%d width=%d lo=%d w=%g mode=%d: %v", rows, width, lo, w, mode, err)
						}
					}
				}
			}
		}
	}
}

// FuzzTriRun holds the same oracle to fuzzed runs.
func FuzzTriRun(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint8(0), uint8(1), 1.0, uint64(1))
	f.Add(uint16(7), uint8(2), uint8(3), uint8(0), 1.5, uint64(2))
	f.Add(uint16(1025), uint8(3), uint8(1), uint8(9), 1.0, uint64(3))
	f.Add(uint16(64), uint8(11), uint8(0), uint8(2), -3e200, uint64(4))
	f.Fuzz(func(t *testing.T, rows uint16, width, lo, tail uint8, w float64, seed uint64) {
		needAssembly(t)
		if err := checkTriRun(int(rows)%3000, int(width)%16, int(lo), int(tail), w, seed, int(seed%leafModes)); err != nil {
			t.Fatalf("rows=%d width=%d lo=%d tail=%d w=%g: %v", int(rows)%3000, int(width)%16, lo, tail, w, err)
		}
	})
}

// chainRows is the forward half of an n-row chain (row i reads row i-1)
// and its backward half.
func chainRows(n int) (lower, upper TriRows, diag []float64) {
	lower.Ptr, upper.Ptr, diag = make([]int, n+1), make([]int, n+1), make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 2
		if i > 0 {
			lower.Idx, lower.Vals = append(lower.Idx, int32(i-1)), append(lower.Vals, -1)
		}
		if i < n-1 {
			upper.Idx, upper.Vals = append(upper.Idx, int32(i+1)), append(upper.Vals, -1)
		}
		lower.Ptr[i+1], upper.Ptr[i+1] = len(lower.Idx), len(upper.Idx)
	}
	return lower, upper, diag
}

// TestNewTriSweepsChecksTheSchedule: a schedule that puts a row in the
// level of a row it reads, lists a row twice, or does not cover the rows
// is refused when the sweeps are packed — Solve and the assembly never
// see a position they cannot trust — and a sound one packs positions
// that all lie in levels swept earlier.
func TestNewTriSweepsChecksTheSchedule(t *testing.T) {
	lower, upper, diag := chainRows(4)
	mustPanic := func(name string, order, levels []int32) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		NewTriSweeps(lower, upper, diag, order, levels, 1)
	}
	mustPanic("two chained rows in one level", []int32{0, 1, 2, 3}, []int32{0, 2, 3, 4})
	mustPanic("levels against the chain", []int32{3, 2, 1, 0}, []int32{0, 1, 2, 3, 4})
	mustPanic("a row listed twice", []int32{0, 1, 1, 3}, []int32{0, 1, 2, 3, 4})
	mustPanic("levels stop short", []int32{0, 1, 2, 3}, []int32{0, 1, 2, 3})
	mustPanic("levels out of order", []int32{0, 1, 2, 3}, []int32{0, 3, 2, 4})

	fwd, bwd := NewTriSweeps(lower, upper, diag, []int32{0, 1, 2, 3}, []int32{0, 1, 2, 3, 4}, 1)
	for _, r := range fwd.runs {
		for _, p := range fwd.pos[r.off : r.off+int(r.rows*r.width)] {
			if p >= r.lo {
				t.Fatalf("forward run at %d reads position %d", r.lo, p)
			}
		}
	}
	for _, r := range bwd.runs {
		for _, p := range bwd.pos[r.off : r.off+int(r.rows*r.width)] {
			if p < r.lo+r.rows {
				t.Fatalf("backward run at %d reads position %d", r.lo, p)
			}
		}
	}
	// The 4-chain with diagonal 2 and off-diagonals -1, by hand.
	x := []float64{1, 0, 0, 1}
	fwd.Solve(x)
	if want := []float64{0.5, 0.25, 0.125, 0.5625}; !bitsEqual(want, x) {
		t.Fatalf("forward solve: got %v, want %v", x, want)
	}
	bwd.Solve(x)
	if want := []float64{0.36328125, 0.2265625, 0.203125, 0.28125}; !bitsEqual(want, x) {
		t.Fatalf("backward solve: got %v, want %v", x, want)
	}
}

// TestTriSweepSplitsLongRuns: a level longer than one assembly call may
// stream is packed as several runs, and solves to the same bits.
func TestTriSweepSplitsLongRuns(t *testing.T) {
	n := 3*asmChunk/2 + 7 // rows 1..n-1 all read row 0: one level, width 1
	lower := TriRows{Ptr: make([]int, n+1)}
	upper := TriRows{Ptr: make([]int, n+1)}
	diag, order := make([]float64, n), make([]int32, n)
	for i := range order {
		order[i], diag[i] = int32(i), 1+float64(i%7)
		if i > 0 {
			lower.Idx, lower.Vals = append(lower.Idx, 0), append(lower.Vals, 1/float64(i))
			upper.Idx, upper.Vals = append(upper.Idx, int32(i)), append(upper.Vals, 1/float64(i))
		}
		lower.Ptr[i+1] = len(lower.Idx)
	}
	for i := range upper.Ptr[1:] {
		upper.Ptr[i+1] = len(upper.Idx) // row 0 reads every other row going backward
	}
	fwd, bwd := NewTriSweeps(lower, upper, diag, order, []int32{0, 1, int32(n)}, 1.5)
	for _, r := range fwd.runs {
		if int(r.rows)*(int(r.width)+1) > asmChunk {
			t.Fatalf("run of %d rows of width %d is past the cap", r.rows, r.width)
		}
	}
	if len(fwd.runs) < 3 {
		t.Fatalf("%d runs, want the long level split", len(fwd.runs))
	}
	x, want := New(n), New(n)
	Random(x, 9)
	copy(want, x)
	fwd.Solve(x)
	bwd.Solve(x)
	want[0] = want[0] * 1.5 / diag[0]
	for i := 1; i < n; i++ {
		want[i] = (want[i] - lower.Vals[i-1]*want[0]) * 1.5 / diag[i]
	}
	for i := 1; i < n; i++ {
		want[i] = want[i] * 1.5 / diag[i]
	}
	s := want[0]
	for i := 1; i < n; i++ {
		s -= upper.Vals[i-1] * want[i]
	}
	want[0] = s * 1.5 / diag[0]
	if !bitsEqual(want, x) {
		t.Fatal("split runs solve to different bits")
	}
}

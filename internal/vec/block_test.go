package vec

import (
	"testing"
)

// bandCSR builds a deterministic 5-band n×n CSR system for the
// multi-vector SpMV tests: uniform-ish rows so an equal row split is a
// valid nnz-balanced partition.
func bandCSR(n int, seed uint64) (rowPtr []int, colIdx []int32, vals []float64) {
	rowPtr = make([]int, n+1)
	noise := New(5 * n)
	Random(noise, seed)
	k := 0
	for i := 0; i < n; i++ {
		for _, j := range [5]int{i - 2, i - 1, i, i + 1, i + 2} {
			if j >= 0 && j < n {
				colIdx = append(colIdx, int32(j))
				vals = append(vals, noise[k%len(noise)])
				k++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx, vals
}

// TestDotBlockMatchesPairwiseDot: the serial block Gram kernel is
// definitionally the pairwise Dot, bitwise.
func TestDotBlockMatchesPairwiseDot(t *testing.T) {
	n := 3*BlockLen + 17
	xs := make([]Vector, 3)
	ys := make([]Vector, 2)
	for i := range xs {
		xs[i] = New(n)
		Random(xs[i], uint64(100+i))
	}
	for j := range ys {
		ys[j] = New(n)
		Random(ys[j], uint64(200+j))
	}
	out := make([]float64, len(xs)*len(ys))
	DotBlock(xs, ys, out, make([]float64, len(out)*nblocks(n)))
	for i := range xs {
		for j := range ys {
			if want := Dot(xs[i], ys[j]); out[i*len(ys)+j] != want {
				t.Fatalf("DotBlock[%d,%d] = %.17g, Dot = %.17g", i, j, out[i*len(ys)+j], want)
			}
		}
	}
}

// TestAxpyBlockMatchesLoopedAxpy: the serial multi-axpy matches the
// naive per-pair Axpy loop bitwise (same per-element accumulation
// order: for each block, over i in order).
func TestAxpyBlockMatchesLoopedAxpy(t *testing.T) {
	n := 2*BlockLen + 5
	s := 3
	xs := make([]Vector, s)
	for i := range xs {
		xs[i] = New(n)
		Random(xs[i], uint64(300+i))
	}
	coef := make([]float64, s*s)
	Random(coef, 77)
	y0 := make([]Vector, s)
	y1 := make([]Vector, s)
	base := New(n)
	Random(base, 88)
	for j := 0; j < s; j++ {
		y0[j] = Clone(base)
		y1[j] = Clone(base)
	}
	AxpyBlock(coef, xs, y0)
	// Reference: identical block/element order, one pair at a time.
	for b0 := 0; b0 < n; b0 += BlockLen {
		b1 := b0 + BlockLen
		if b1 > n {
			b1 = n
		}
		for j := 0; j < s; j++ {
			for i := 0; i < s; i++ {
				Axpy(coef[i*s+j], xs[i][b0:b1], y1[j][b0:b1])
			}
		}
	}
	for j := 0; j < s; j++ {
		if !Equal(y0[j], y1[j]) {
			t.Fatalf("AxpyBlock column %d differs from reference", j)
		}
	}
}

// TestPooledBlockKernelsBitwiseSerial: the pooled DotBlock/AxpyBlock
// agree bitwise with their serial forms for every worker count and
// boundary-straddling size, the same contract as every other pooled
// kernel.
func TestPooledBlockKernelsBitwiseSerial(t *testing.T) {
	sizes := []int{1, BlockLen - 1, BlockLen, BlockLen + 1, 3 * BlockLen, 8*BlockLen + 17}
	for _, n := range sizes {
		xs := make([]Vector, 3)
		ys := make([]Vector, 3)
		for i := range xs {
			xs[i] = New(n)
			ys[i] = New(n)
			Random(xs[i], uint64(1000+i))
			Random(ys[i], uint64(2000+i))
		}
		out := make([]float64, 9)
		coef := make([]float64, 9)
		Random(coef, 55)
		wantOut := make([]float64, 9)
		part := make([]float64, 9*nblocks(n))
		DotBlock(xs, ys, wantOut, part)
		wantYs := make([]Vector, 3)
		for j := range ys {
			wantYs[j] = Clone(ys[j])
		}
		AxpyBlock(coef, xs, wantYs)

		for _, w := range []int{2, 3, 4, 7} {
			p := NewPoolMinChunk(w, 1)
			p.DotBlock(xs, ys, out, part)
			for k := range out {
				if out[k] != wantOut[k] {
					t.Fatalf("n=%d w=%d pooled DotBlock[%d] = %.17g, serial %.17g", n, w, k, out[k], wantOut[k])
				}
			}
			got := make([]Vector, 3)
			for j := range ys {
				got[j] = Clone(ys[j])
			}
			p.AxpyBlock(coef, xs, got)
			for j := range got {
				if !Equal(got[j], wantYs[j]) {
					t.Fatalf("n=%d w=%d pooled AxpyBlock column %d differs bitwise", n, w, j)
				}
			}
			p.Close()
		}
	}
}

// TestCSRMulVecsMatchesMulVecPerColumn: the multi-vector SpMV produces
// each output column bitwise identical to the single-vector CSR loop,
// serially and pooled, for column counts exercising the 4-wide groups
// and the remainder path.
func TestCSRMulVecsMatchesMulVecPerColumn(t *testing.T) {
	n := 3000
	rowPtr, colIdx, vals := bandCSR(n, 9)
	for _, s := range []int{1, 2, 4, 5, 8, 11} {
		xs := make([]Vector, s)
		dsts := make([]Vector, s)
		want := make([]Vector, s)
		for j := 0; j < s; j++ {
			xs[j] = New(n)
			Random(xs[j], uint64(400+j))
			dsts[j] = New(n)
			want[j] = New(n)
			// Reference: the scalar CSR loop, one column at a time.
			for i := 0; i < n; i++ {
				var acc float64
				for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
					acc += vals[q] * xs[j][colIdx[q]]
				}
				want[j][i] = acc
			}
		}
		CSRMulVecsRows(rowPtr, colIdx, vals, dsts, xs, 0, n)
		for j := 0; j < s; j++ {
			if !Equal(dsts[j], want[j]) {
				t.Fatalf("s=%d serial CSRMulVecsRows column %d differs bitwise", s, j)
			}
		}
		for _, w := range []int{2, 3, 4} {
			p := NewPoolMinChunk(w, 1)
			p.cut[opCSRMulVecs] = 1
			bounds := make([]int, w+1)
			for c := 0; c <= w; c++ {
				bounds[c] = c * n / w
			}
			for j := range dsts {
				Scale(0, dsts[j])
			}
			if !p.CSRMulVecs(bounds, rowPtr, colIdx, vals, dsts, xs) {
				t.Fatalf("s=%d w=%d pooled CSRMulVecs refused a valid partition", s, w)
			}
			for j := 0; j < s; j++ {
				if !Equal(dsts[j], want[j]) {
					t.Fatalf("s=%d w=%d pooled CSRMulVecs column %d differs bitwise", s, j, w)
				}
			}
			p.Close()
		}
	}
}

// TestPoolZeroAllocBlockKernels: the block kernels ride the same
// zero-alloc dispatch path as every other opcode once warm.
func TestPoolZeroAllocBlockKernels(t *testing.T) {
	n := 1 << 15
	xs := make([]Vector, 4)
	ys := make([]Vector, 4)
	for i := range xs {
		xs[i] = New(n)
		ys[i] = New(n)
		Random(xs[i], uint64(10+i))
		Random(ys[i], uint64(20+i))
	}
	out := make([]float64, 16)
	coef := make([]float64, 16)
	for i := range coef {
		coef[i] = 1e-9
	}
	rowPtr, colIdx, vals := bandCSR(n, 31)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.cut[opCSRMulVecs] = 1
	bounds := []int{0, n / 4, n / 2, 3 * n / 4, n}
	p.DotBlock(xs, ys, out, nil) // warm: workers + batch slab
	p.AxpyBlock(coef, xs, ys)
	if !p.CSRMulVecs(bounds, rowPtr, colIdx, vals, ys, xs) {
		t.Fatal("pooled CSRMulVecs refused the warmup dispatch")
	}

	if avg := testing.AllocsPerRun(100, func() { p.DotBlock(xs, ys, out, nil) }); avg != 0 {
		t.Errorf("pooled DotBlock allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.AxpyBlock(coef, xs, ys) }); avg != 0 {
		t.Errorf("pooled AxpyBlock allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		p.CSRMulVecs(bounds, rowPtr, colIdx, vals, ys, xs)
	}); avg != 0 {
		t.Errorf("pooled CSRMulVecs allocates %v per call, want 0", avg)
	}
}

package sparse

import (
	"testing"

	"vrcg/internal/vec"
)

// BenchmarkSpMV times DIA.MulVec's two row kernels side by side on the
// operators of the root package's BenchmarkSpMV dia/* rows (which can
// reach only the one MulVec dispatches to): go is dia1..dia5, avx2 the
// one-pass assembly kernel. MB/s counts the slab — for these symmetric
// bands, the diagonals k >= 0 — x and dst once each, as the root
// benchmark's spmvBytes does; its dia-full rows are the same bands with
// every diagonal stored.
func BenchmarkSpMV(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *CSR
	}{
		{"poisson2d-32", Poisson2D(32)},
		{"poisson2d-64", Poisson2D(64)},
		{"poisson3d-64", Poisson3D(64)},
	} {
		d := c.a.toDIA(1)
		n := d.n
		x, y := vec.New(n), vec.New(n)
		vec.Random(x, 4)
		for _, k := range []struct {
			name string
			rows diaRowKernel
		}{{"go", (*DIA).mulRowsGo}, {"avx2", (*DIA).mulRows}} {
			b.Run("dia/"+c.name+"/"+k.name, func(b *testing.B) {
				if k.name != "go" && vec.Kernels() != k.name {
					b.Skipf("this process runs the %s bodies", vec.Kernels())
				}
				b.SetBytes(int64(8*len(d.slab) + 16*n))
				for i := 0; i < b.N; i++ {
					d.cutRows(0, n, y, x, carry{}, k.rows)
				}
			})
		}
	}
}

// BenchmarkDirectionSweep times what a cg iteration does between its two
// inner products on the tuned band — p = r + βp, Ap, (p, Ap) — as
// vec.DirectionSweep takes it, the update riding the row kernel's wide
// trip; BenchmarkSpMV's rows are the product alone.
func BenchmarkDirectionSweep(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *CSR
	}{
		{"poisson2d-64", Poisson2D(64)},
		{"poisson3d-32", Poisson3D(32)},
		{"poisson3d-64", Poisson3D(64)},
	} {
		d, ok := TuneMulVec(c.a).(*DIA)
		if !ok {
			b.Fatalf("%s is not tuned to diagonal storage", c.name)
		}
		n := d.n
		r, p, ap, part := vec.New(n), vec.New(n), vec.New(n), vec.New((n+vec.BlockLen-1)/vec.BlockLen)
		vec.Random(r, 1)
		vec.Random(p, 2)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vec.DirectionSweep(d.MulRows, d.Reach(), r, 0.5, p, ap, part, nil)
			}
		})
	}
}

// BenchmarkRectProducts times a least-squares step's operator work on an
// ICP-shaped 5000×6 Jacobian: the dense Rect it is stored as, and the
// same matrix with one entry of every row dropped, which stays on the
// CSR loop and the cached transpose (built before the timer starts).
// SetValues is a copy on the dense Rect and a copy plus a transpose
// rescatter on the sparse one.
func BenchmarkRectProducts(b *testing.B) {
	const rows, cols = 5000, 6
	data := make([]float64, rows*cols)
	vec.Random(data, 7)
	holed := append([]float64(nil), data...)
	for i := 0; i < rows; i++ {
		holed[i*cols+i%cols] = 0
	}
	for _, c := range []struct {
		name string
		m    *Rect
	}{
		{"dense", RectFromDense(rows, cols, data)},
		{"sparse", RectFromDense(rows, cols, holed)},
	} {
		m := c.m
		x, xt := make([]float64, cols), make([]float64, rows)
		vec.Random(x, 8)
		vec.Random(xt, 9)
		y, yt := make([]float64, rows), make([]float64, cols)
		m.MulVecT(yt, xt)
		vals := append([]float64(nil), m.Values()...)
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"MulVec", func() { m.MulVec(y, x) }},
			{"MulVecT", func() { m.MulVecT(yt, xt) }},
			{"SetValues", func() { m.SetValues(vals) }},
		} {
			b.Run(c.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.fn()
				}
			})
		}
	}
}

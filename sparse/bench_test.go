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
					d.cutRows(0, n, y, x, k.rows)
				}
			})
		}
	}
}

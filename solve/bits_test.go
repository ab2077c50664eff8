package solve_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// parentBits is one solve's outcome reduced to what must not move: the
// iteration count, the bits of the recurrence residual norm, a hash of
// the bits of X, and the work counters.
type parentBits struct {
	system, method string
	iters          int
	resNorm, xHash uint64
	stats          [5]int64
}

// bitsSystems are the goldenSystem fixtures and lib-ladder's system:
// Poisson2D(64) under the benchmark's fixed direction (benchmark/gen.go,
// genLadderRHS at scale 1; the seed only picks a sign and a power of two).
func bitsSystems(t *testing.T) (names []string, as []*sparse.CSR, bs [][]float64) {
	for _, name := range []string{"poisson2d_20", "poisson2d_31", "poisson2d_64"} {
		a, b := goldenSystem(t, name)
		names, as, bs = append(names, name), append(as, a), append(bs, b)
	}
	a := sparse.Poisson2D(64)
	b := make([]float64, a.Dim())
	rng := rand.New(rand.NewSource(1))
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return append(names, "ladder"), append(as, a), append(bs, b)
}

func bitsOf(t *testing.T, system, method string, a *sparse.CSR, b []float64, pool *sparse.Pool) parentBits {
	opts := []solve.Option{solve.WithTol(1e-8), solve.WithPool(pool)}
	if method == "pcg" || method == "blockpcg" {
		m, err := precond.NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, solve.WithPreconditioner(m))
	}
	res, err := solve.MustNew(method).Solve(a, b, opts...)
	if err != nil {
		t.Fatalf("%s/%s: %v", system, method, err)
	}
	return resultBits(system, method, res)
}

// bitsAtParent is what every registry method returned at the commit
// before the batched-dot and combination leaves (0de36eb), tol 1e-8,
// serial and on a three-worker pool alike. The leaves regroup loads, not
// sums, so nothing here may move; a change that does move a sum on
// purpose re-records the table and says which sum. The blockcg and
// blockpcg rows are the cg and pcg rows of the same system: those are
// the kernels they name. The stats column alone was re-recorded when the
// Workspace took over counting the work (engine.Stats): it counts what
// ran, where the kernels' own ledgers had counted a product by the zero
// start vector and a direction update no converged solve runs.
var bitsAtParent = []parentBits{
	{"poisson2d_20", "bicgstab", 28, 0x3e9820e7a0e978f1, 0xae98fe96aec980bd, [5]int64{56, 166, 166, 0, 480640}},
	{"poisson2d_20", "blockcg", 42, 0x3e88addcb7aad8b6, 0x44ad3f497e68c18c, [5]int64{43, 85, 125, 0, 333120}},
	{"poisson2d_20", "blockpcg", 20, 0x3e929303c544cf88, 0x716c241dde57f8af, [5]int64{21, 62, 59, 21, 177440}},
	{"poisson2d_20", "cg", 42, 0x3e88addcb7aad8b6, 0x44ad3f497e68c18c, [5]int64{43, 85, 125, 0, 333120}},
	{"poisson2d_20", "cgfused", 42, 0x3e88addcb7aad8b6, 0x44ad3f497e68c18c, [5]int64{43, 85, 125, 0, 333120}},
	{"poisson2d_20", "cgnr", 103, 0x3e9006197ae370bb, 0x9804f50bdc13248, [5]int64{208, 311, 309, 0, 1294720}},
	{"poisson2d_20", "cr", 41, 0x3e9a25f290f7e892, 0x8d0584dfd28b3f82, [5]int64{43, 125, 164, 0, 396320}},
	{"poisson2d_20", "gmres", 45, 0x3e941cf693378053, 0x955370eded4ba80e, [5]int64{47, 633, 677, 0, 1209680}},
	{"poisson2d_20", "gropp", 42, 0x3e88addcb7aad8ba, 0x3944ba5e51c6daf1, [5]int64{44, 85, 168, 0, 371360}},
	{"poisson2d_20", "lsqr", 103, 0x3e81103355a809f1, 0x7755f64e067884a9, [5]int64{208, 208, 620, 0, 1377920}},
	{"poisson2d_20", "minres", 41, 0x3e9a25f290f7e8d0, 0x5967e42ae06ba317, [5]int64{42, 83, 288, 0, 424880}},
	{"poisson2d_20", "parcg", 42, 0x3e88adfff97a2cad, 0x1dc8e81e14aff1c3, [5]int64{65, 596, 526, 0, 1121600}},
	{"poisson2d_20", "parcg-cg", 42, 0x3e88addcb7aad8b6, 0x44ad3f497e68c18c, [5]int64{43, 85, 125, 0, 333120}},
	{"poisson2d_20", "parcg-pipe", 42, 0x3e88addc6a36f026, 0x994d20f85d4388ff, [5]int64{45, 86, 252, 0, 443200}},
	{"poisson2d_20", "pcg", 20, 0x3e929303c544cf88, 0x716c241dde57f8af, [5]int64{21, 62, 59, 21, 177440}},
	{"poisson2d_20", "pipecg", 42, 0x3e88addc6a36f026, 0x994d20f85d4388ff, [5]int64{45, 86, 252, 0, 443200}},
	{"poisson2d_20", "sd", 1560, 0x3e9c34d2f2e48887, 0x5793bb755a611b6c, [5]int64{1561, 3121, 3120, 0, 10987040}},
	{"poisson2d_20", "sstep", 42, 0x3e88addcd7359b11, 0xe9db91377e19a9cf, [5]int64{100, 342, 263, 0, 868000}},
	{"poisson2d_20", "vrcg", 42, 0x3e88aed32f5c682a, 0x8952cf76be34506f, [5]int64{81, 271, 294, 0, 764468}},
	{"poisson2d_31", "bicgstab", 66, 0x3ea5c676595edab3, 0xf985c1dc70923a82, [5]int64{133, 397, 396, 0, 2769292}},
	{"poisson2d_31", "blockcg", 84, 0x3e9ace82c5d1f570, 0x8c35d4e0c2759346, [5]int64{85, 169, 251, 0, 1603010}},
	{"poisson2d_31", "blockpcg", 28, 0x3ea5ca51530095be, 0x7f1c00bcd91d0bd1, [5]int64{29, 86, 83, 29, 596316}},
	{"poisson2d_31", "cg", 84, 0x3e9ace82c5d1f570, 0x8c35d4e0c2759346, [5]int64{85, 169, 251, 0, 1603010}},
	{"poisson2d_31", "cgfused", 84, 0x3e9ace82c5d1f570, 0x8c35d4e0c2759346, [5]int64{85, 169, 251, 0, 1603010}},
	{"poisson2d_31", "cgnr", 517, 0x3ea3a3127b000e28, 0xbaf3b407ec4b0026, [5]int64{1036, 1553, 1551, 0, 15664920}},
	{"poisson2d_31", "cr", 82, 0x3ea35bf1cecd9628, 0xe4b3900fc396a267, [5]int64{84, 248, 328, 0, 1893480}},
	{"poisson2d_31", "gmres", 122, 0x3ea5e69361c1fdec, 0xd6a7fa8209273794, [5]int64{127, 1991, 2112, 0, 8952893}},
	{"poisson2d_31", "gropp", 84, 0x3e9ace82c5d203e9, 0xe475318504a8c174, [5]int64{86, 169, 336, 0, 1775742}},
	{"poisson2d_31", "lsqr", 517, 0x3ea458f148d0d747, 0x8400f62e7af1a71, [5]int64{1036, 1036, 3104, 0, 16660516}},
	{"poisson2d_31", "minres", 82, 0x3ea35bf1cecd9b83, 0xde00b9dc7b0544b9, [5]int64{83, 165, 575, 0, 2040761}},
	{"poisson2d_31", "parcg", 84, 0x3e9acefd45f5df79, 0xdba43828dd994ac3, [5]int64{132, 1164, 1054, 0, 5373850}},
	{"poisson2d_31", "parcg-cg", 84, 0x3e9ace82c5d1f570, 0x8c35d4e0c2759346, [5]int64{85, 169, 251, 0, 1603010}},
	{"poisson2d_31", "parcg-pipe", 84, 0x3e9ace809f363e21, 0x3001f7a4240f3aa2, [5]int64{87, 170, 504, 0, 2109922}},
	{"poisson2d_31", "pcg", 28, 0x3ea5ca51530095be, 0x7f1c00bcd91d0bd1, [5]int64{29, 86, 83, 29, 596316}},
	{"poisson2d_31", "pipecg", 84, 0x3e9ace809f363e21, 0x3001f7a4240f3aa2, [5]int64{87, 170, 504, 0, 2109922}},
	{"poisson2d_31", "sd", 3548, 0x3ea5d37aece96662, 0x8783ff6074e46714, [5]int64{3549, 7097, 7096, 0, 60504684}},
	{"poisson2d_31", "sstep", 84, 0x3e9ace82c82fb314, 0x58d81721203dbc5d, [5]int64{190, 652, 525, 0, 4040974}},
	{"poisson2d_31", "vrcg", 84, 0x3e9ace84658d821e, 0xe3320aa33f106f4d, [5]int64{158, 523, 588, 0, 3617394}},
	{"poisson2d_64", "bicgstab", 125, 0x3eb0b4805084d984, 0x8daa2c0baeebce26, [5]int64{250, 748, 748, 0, 22367232}},
	{"poisson2d_64", "blockcg", 161, 0x3eb383830fa8aaf6, 0xf03de8f72e973689, [5]int64{162, 323, 482, 0, 13147136}},
	{"poisson2d_64", "blockpcg", 53, 0x3eb62c4e07a896d0, 0x8dada722b7bb6df, [5]int64{54, 161, 158, 54, 4797440}},
	{"poisson2d_64", "cg", 161, 0x3eb383830fa8aaf6, 0xf03de8f72e973689, [5]int64{162, 323, 482, 0, 13147136}},
	{"poisson2d_64", "cgfused", 161, 0x3eb383830fa8aaf6, 0xf03de8f72e973689, [5]int64{162, 323, 482, 0, 13147136}},
	{"poisson2d_64", "cgnr", 2100, 0x3eb59bce6e3f209c, 0x667cae7aed8fd7ee, [5]int64{4202, 6302, 6300, 0, 273198080}},
	{"poisson2d_64", "cr", 153, 0x3eb5764d32bd155e, 0xc3df513ac3c50e60, [5]int64{155, 461, 612, 0, 15059456}},
	{"poisson2d_64", "gmres", 640, 0x3eb5fa4ab9e18cc8, 0x42c0b2163caa2769, [5]int64{662, 10483, 11122, 0, 201053184}},
	{"poisson2d_64", "gropp", 161, 0x3eb383830faa032f, 0xa934c109e0ec002e, [5]int64{163, 323, 644, 0, 14514688}},
	{"poisson2d_64", "lsqr", 2100, 0x3eb5ad428e5bb11d, 0x2fb4dd4e1f48d193, [5]int64{4202, 4202, 12602, 0, 290409472}},
	{"poisson2d_64", "minres", 153, 0x3eb5764d32bcd1e4, 0x24f15bee7af6ed7, [5]int64{154, 307, 1072, 0, 16268288}},
	{"poisson2d_64", "parcg", 161, 0x3eb38eb92a9008dc, 0x4b6ad679c8190522, [5]int64{252, 2193, 2018, 0, 43677696}},
	{"poisson2d_64", "parcg-cg", 161, 0x3eb383830fa8aaf6, 0xf03de8f72e973689, [5]int64{162, 323, 482, 0, 13147136}},
	{"poisson2d_64", "parcg-pipe", 161, 0x3eb3839f3441bb79, 0xb7eae62b00487b81, [5]int64{164, 324, 966, 0, 17201152}},
	{"poisson2d_64", "pcg", 53, 0x3eb62c4e07a896d0, 0x8dada722b7bb6df, [5]int64{54, 161, 158, 54, 4797440}},
	{"poisson2d_64", "pipecg", 161, 0x3eb3839f3441bb79, 0xb7eae62b00487b81, [5]int64{164, 324, 966, 0, 17201152}},
	{"poisson2d_64", "sd", 15044, 0x3eb698b43f677b52, 0x8fa259fa40039a8d, [5]int64{15045, 30089, 30088, 0, 1101510144}},
	{"poisson2d_64", "sstep", 161, 0x3eb383838f8e04d0, 0x3dd8c21d9ec3c366, [5]int64{370, 1272, 1007, 0, 33635328}},
	{"poisson2d_64", "vrcg", 161, 0x3eb3841fd68556f4, 0x401fdb5fa1929671, [5]int64{295, 970, 1127, 0, 29116258}},
	{"ladder", "bicgstab", 138, 0x3e962bea0c079203, 0xcaac278a279d1162, [5]int64{276, 826, 826, 0, 24696832}},
	{"ladder", "blockcg", 194, 0x3e94696fb64ffd3b, 0xa92c09b3f51eb39d, [5]int64{195, 389, 581, 0, 15833600}},
	{"ladder", "blockpcg", 65, 0x3e96103178de7831, 0xfb1fedfc5466d216, [5]int64{66, 197, 194, 66, 5872640}},
	{"ladder", "cg", 194, 0x3e94696fb64ffd3b, 0xa92c09b3f51eb39d, [5]int64{195, 389, 581, 0, 15833600}},
	{"ladder", "cgfused", 194, 0x3e94696fb64ffd3b, 0xa92c09b3f51eb39d, [5]int64{195, 389, 581, 0, 15833600}},
	{"ladder", "cgnr", 2128, 0x3ea3317249353364, 0x9926685cdf802638, [5]int64{4258, 6386, 6384, 0, 276839424}},
	{"ladder", "cr", 189, 0x3e97f899be280dfd, 0x4a9e06437ddc4c83, [5]int64{191, 569, 756, 0, 18579968}},
	{"ladder", "gmres", 524, 0x3e9821985fcc6056, 0xf7984aafb0375837, [5]int64{542, 8553, 9076, 0, 164119552}},
	{"ladder", "gropp", 194, 0x3e94696fb64ffd6a, 0x2caddd43be4075fe, [5]int64{196, 389, 776, 0, 17471488}},
	{"ladder", "lsqr", 2128, 0x3ea39dff603163db, 0x1a643b8830436d3c, [5]int64{4258, 4258, 12770, 0, 294280192}},
	{"ladder", "minres", 189, 0x3e97f899be280ca0, 0x2d496f0a81bf9833, [5]int64{190, 379, 1324, 0, 20083712}},
	{"ladder", "parcg", 194, 0x3e94696feb2d70db, 0x5fc01fb4bcb5551d, [5]int64{302, 2653, 2430, 0, 52642816}},
	{"ladder", "parcg-cg", 194, 0x3e94696fb64ffd3b, 0xa92c09b3f51eb39d, [5]int64{195, 389, 581, 0, 15833600}},
	{"ladder", "parcg-pipe", 194, 0x3e94696f9b74ca26, 0x631acf5899b1a906, [5]int64{197, 390, 1164, 0, 20698624}},
	{"ladder", "pcg", 65, 0x3e96103178de7831, 0xfb1fedfc5466d216, [5]int64{66, 197, 194, 66, 5872640}},
	{"ladder", "pipecg", 194, 0x3e94696f9b74ca26, 0x631acf5899b1a906, [5]int64{197, 390, 1164, 0, 20698624}},
	{"ladder", "sd", 12298, 0x3e9886661d4eefd8, 0x55cd1a878935d15f, [5]int64{12299, 24597, 24596, 0, 900459008}},
	{"ladder", "sstep", 194, 0x3e94696fb6544e5a, 0x2534a094d986d2b1, [5]int64{442, 1520, 1213, 0, 40266752}},
	{"ladder", "vrcg", 194, 0x3e94696fc85d069e, 0x5760da5d74535f7f, [5]int64{358, 1177, 1358, 0, 35253700}},
}

// TestBitsUnchangedFromParent: X, Iterations, ResidualNorm and Stats of
// every method, serial and pooled, on the golden systems and on
// lib-ladder's, are the recorded ones bit for bit.
func TestBitsUnchangedFromParent(t *testing.T) {
	names, as, bs := bitsSystems(t)
	pool := vec.NewPoolMinChunk(3, 64)
	defer pool.Close()
	seen := 0
	for i, name := range names {
		for _, method := range solve.Methods() {
			var want *parentBits
			for j := range bitsAtParent {
				if bitsAtParent[j].system == name && bitsAtParent[j].method == method {
					want = &bitsAtParent[j]
				}
			}
			if want == nil {
				t.Errorf("%s/%s: no recorded row", name, method)
				continue
			}
			seen++
			for _, p := range []*sparse.Pool{nil, pool} {
				if got := bitsOf(t, name, method, as[i], bs[i], p); got != *want {
					t.Errorf("pooled=%v: got %+v, recorded %+v", p != nil, got, *want)
				}
			}
		}
	}
	if seen != len(bitsAtParent) {
		t.Errorf("%d of %d recorded rows checked", seen, len(bitsAtParent))
	}
}

// denseRectSystem builds one of the least-squares fixtures whose every
// row stores every column: "icp" is a 5000×6 point-to-plane Jacobian
// (row i is [pᵢ×nᵢ, nᵢ] for a point pᵢ and unit normal nᵢ) with a
// right-hand side of plane distances plus noise; "wide" (300×40) and
// "thin" (64×3) are Gaussian.
func denseRectSystem(t *testing.T, name string) (*sparse.Rect, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	var rows, cols int
	switch name {
	case "icp":
		rows, cols = 5000, 6
	case "wide":
		rows, cols = 300, 40
	case "thin":
		rows, cols = 64, 3
	default:
		t.Fatalf("unknown dense system %q", name)
	}
	data := make([]float64, rows*cols)
	b := make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := data[i*cols : (i+1)*cols]
		if name != "icp" {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			b[i] = rng.NormFloat64()
			continue
		}
		var p, n [3]float64
		var nn float64
		for k := range p {
			p[k], n[k] = 2*rng.Float64()-1, rng.NormFloat64()
			nn += n[k] * n[k]
		}
		nn = math.Sqrt(nn)
		for k := range n {
			n[k] /= nn
		}
		row[0], row[1], row[2] = p[1]*n[2]-p[2]*n[1], p[2]*n[0]-p[0]*n[2], p[0]*n[1]-p[1]*n[0]
		row[3], row[4], row[5] = n[0], n[1], n[2]
		b[i] = 0.01*(row[0]-2*row[1]+row[3]+0.5*row[5]) + 1e-4*rng.NormFloat64()
	}
	a := sparse.RectFromDense(rows, cols, data)
	if a.NNZ() != rows*cols {
		t.Fatalf("%s: %d stored entries, want every one of %d", name, a.NNZ(), rows*cols)
	}
	return a, b
}

// resultBits reduces one solve's outcome to a parentBits row.
func resultBits(system, method string, res *solve.Result) parentBits {
	h := uint64(14695981039346656037)
	for _, v := range res.X {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	s := res.Stats
	return parentBits{system, method, res.Iterations, math.Float64bits(res.ResidualNorm), h,
		[5]int64{int64(s.MatVecs), int64(s.InnerProducts), int64(s.VectorUpdates), int64(s.PrecondSolves), s.Flops}}
}

// denseRectBitsAtParent is what cgnr and lsqr returned on the dense
// fixtures, tol 1e-10, serial and on a three-worker pool alike, at the
// commit before Rect multiplied a matrix that stores every column as
// dense rows (2689e39): the dense kernels sum in the CSR loop's order,
// so nothing here may move. The stats column was re-recorded as
// bitsAtParent's was.
var denseRectBitsAtParent = []parentBits{
	{"icp", "cgnr", 6, 0x3f7cc24d9c72b039, 0x2b34d0b0f1cd627f, [5]int64{14, 20, 18, 0, 1030228}},
	{"icp", "lsqr", 6, 0x3f7cc24d9c72b077, 0xe276f86db85222eb, [5]int64{14, 14, 38, 0, 1005342}},
	{"wide", "cgnr", 20, 0x402feba52fdff0e6, 0x7e7fcdfa0e993c19, [5]int64{42, 62, 60, 0, 1049480}},
	{"wide", "lsqr", 20, 0x402feba52fdff0ea, 0x5f7e3807aad2035, [5]int64{42, 42, 122, 0, 1046220}},
	{"thin", "cgnr", 3, 0x401c1b8becb3bdb3, 0x4cf1c078f7d583fa, [5]int64{8, 11, 9, 0, 4412}},
	{"thin", "lsqr", 3, 0x401c1b8becb3bdb4, 0x7f735d7949502118, [5]int64{8, 8, 20, 0, 4314}},
}

// TestDenseRectBitsUnchangedFromParent: cgnr and lsqr on Rects that
// store every column of every row, serial and pooled, are the recorded
// ones bit for bit.
func TestDenseRectBitsUnchangedFromParent(t *testing.T) {
	pool := vec.NewPoolMinChunk(3, 64)
	defer pool.Close()
	var got []parentBits
	for _, name := range []string{"icp", "wide", "thin"} {
		a, b := denseRectSystem(t, name)
		for _, method := range []string{"cgnr", "lsqr"} {
			var serial parentBits
			for _, p := range []*sparse.Pool{nil, pool} {
				res, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-10), solve.WithPool(p))
				if err != nil {
					t.Fatalf("%s/%s: %v", name, method, err)
				}
				r := resultBits(name, method, res)
				if p == nil {
					serial = r
					got = append(got, r)
				} else if r != serial {
					t.Errorf("%s/%s: pooled %+v, serial %+v", name, method, r, serial)
				}
			}
		}
	}
	checkRecorded(t, got, denseRectBitsAtParent)
}

// denseRectSequenceBitsAtParent is an lsqr Sequence on the icp fixture
// over five rounds of UpdateValues (every value moved by a few parts in
// a thousand, as an ICP outer iteration moves them) and Step, recorded
// at the same commit as denseRectBitsAtParent (stats column: as
// bitsAtParent's).
var denseRectSequenceBitsAtParent = []parentBits{
	{"icp-seq", "lsqr/0", 6, 0x3f7d96b001862794, 0xea269ab1e15603f1, [5]int64{16, 15, 38, 0, 1125354}},
	{"icp-seq", "lsqr/1", 5, 0x3f7e872c7d418eeb, 0xe39c6054a5b0e488, [5]int64{14, 13, 32, 0, 980300}},
	{"icp-seq", "lsqr/2", 6, 0x3f7f5ae4f310bf3c, 0xdc54f412568ffe00, [5]int64{16, 15, 38, 0, 1125354}},
	{"icp-seq", "lsqr/3", 5, 0x3f80087af6872687, 0xed34a4baa9b1c4c5, [5]int64{14, 13, 32, 0, 980300}},
	{"icp-seq", "lsqr/4", 6, 0x3f80711d4c18fc4b, 0x7b7fbff0d12b1699, [5]int64{16, 15, 38, 0, 1125354}},
}

// TestDenseRectSequenceBitsUnchangedFromParent: the warm-started steps
// of a sequence whose Rect values change between steps are the recorded
// ones bit for bit.
func TestDenseRectSequenceBitsUnchangedFromParent(t *testing.T) {
	a, b := denseRectSystem(t, "icp")
	q, err := solve.NewSequence("lsqr", a.CloneValues(), solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	vals := append([]float64(nil), a.Values()...)
	var got []parentBits
	for round := 0; round < 5; round++ {
		for i := range vals {
			vals[i] *= 1 + 2e-3*rng.NormFloat64()
		}
		if err := q.UpdateValues(vals); err != nil {
			t.Fatal(err)
		}
		res, err := q.Step(b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got = append(got, resultBits("icp-seq", fmt.Sprintf("lsqr/%d", round), res))
	}
	checkRecorded(t, got, denseRectSequenceBitsAtParent)
}

// checkRecorded compares rows with a recorded table, row by row.
func checkRecorded(t *testing.T, got, want []parentBits) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, recorded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got %+v, recorded %+v", got[i], want[i])
		}
	}
}

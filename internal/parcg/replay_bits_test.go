package parcg

import (
	"fmt"
	"math"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/machine"
	"vrcg/sparse"
)

// replayCase is one replay input: a schedule, an operator partitioned
// over cfg.P processors, and the shape of the solve being charged.
type replayCase struct {
	name      string
	a         *sparse.CSR
	cfg       machine.Config
	method    string
	blocking  bool
	k, iters  int
	converged bool
}

// replayBits is one replay reduced to what must not move: the number of
// clocks, an FNV-1a hash of their bit patterns, and the machine's
// counters.
type replayBits struct {
	name   string
	clocks int
	hash   uint64
	stats  machine.Stats
}

// replayCases are TestReplayGolden's rows plus partitions whose blocks
// differ in rows and nonzeros (RandomSPD(300) over 13 processors), one
// row a processor (P = n, and P > n clamped to n), both anchor-exit
// shapes at k = 3, k = 0 (charged as k = 1), and zero iterations.
func replayCases() []replayCase {
	tridiag := sparse.TridiagToeplitz(4096, 4.2, -1)
	poisson := sparse.Poisson2D(24)
	random := sparse.RandomSPD(300, 6, 11)
	small := sparse.Poisson2D(5)
	var cs []replayCase
	add := func(name string, a *sparse.CSR, cfg machine.Config, method string, blocking bool, k, iters int, converged bool) {
		cs = append(cs, replayCase{name, a, cfg, method, blocking, k, iters, converged})
	}
	for _, g := range []struct {
		name      string
		a         *sparse.CSR
		p         int
		method    string
		blocking  bool
		k, iters  int
		converged bool
	}{
		{"tridiag4096/P256/cg", tridiag, 256, "parcg-cg", false, 0, 11, true},
		{"tridiag4096/P256/pipe", tridiag, 256, "parcg-pipe", false, 0, 11, true},
		{"tridiag4096/P256/vrcg-k2", tridiag, 256, "parcg", false, 2, 11, true},
		{"tridiag4096/P256/vrcg-k2-blocking", tridiag, 256, "parcg", true, 2, 11, true},
		{"poisson24/P8/cg", poisson, 8, "parcg-cg", false, 0, 65, true},
		{"poisson24/P8/pipe", poisson, 8, "parcg-pipe", false, 0, 65, true},
		{"poisson24/P8/vrcg-k2", poisson, 8, "parcg", false, 2, 65, true},
		{"poisson24/P8/vrcg-k2-blocking", poisson, 8, "parcg", true, 2, 65, true},
		{"poisson24/P7/cg", poisson, 7, "parcg-cg", false, 0, 65, true},
		{"poisson24/P7/pipe", poisson, 7, "parcg-pipe", false, 0, 65, true},
		{"poisson24/P7/vrcg-k2", poisson, 7, "parcg", false, 2, 65, true},
		{"poisson24/P7/vrcg-k2-blocking", poisson, 7, "parcg", true, 2, 65, true},
		{"poisson24/P8/cg-unconverged", poisson, 8, "parcg-cg", false, 0, 10, false},
		{"poisson24/P8/pipe-unconverged", poisson, 8, "parcg-pipe", false, 0, 10, false},
		{"poisson24/P8/vrcg-k2-unconverged", poisson, 8, "parcg", false, 2, 10, false},
		{"poisson24/P8/vrcg-k2-blocking-unconverged", poisson, 8, "parcg", true, 2, 10, false},
		{"poisson24/P8/vrcg-k2-anchor-exit", poisson, 8, "parcg", false, 2, 40, true},
		{"poisson24/P8/vrcg-k2-blocking-anchor-exit", poisson, 8, "parcg", true, 2, 40, true},
	} {
		add(g.name, g.a, latencyCfg(g.p), g.method, g.blocking, g.k, g.iters, g.converged)
	}
	for _, c := range []struct {
		name string
		cfg  machine.Config
	}{{"latency", latencyCfg(13)}, {"default", machine.DefaultConfig(13)}} {
		pre := "random300/P13/" + c.name + "/"
		add(pre+"cg", random, c.cfg, "parcg-cg", false, 0, 37, true)
		add(pre+"pipe", random, c.cfg, "parcg-pipe", false, 0, 37, true)
		add(pre+"cg-unconverged", random, c.cfg, "parcg-cg", false, 0, 17, false)
		add(pre+"pipe-unconverged", random, c.cfg, "parcg-pipe", false, 0, 17, false)
		add(pre+"vrcg-k2", random, c.cfg, "parcg", false, 2, 37, true)
		add(pre+"vrcg-k2-blocking", random, c.cfg, "parcg", true, 2, 37, true)
		add(pre+"vrcg-k3-unconverged", random, c.cfg, "parcg", false, 3, 17, false)
		add(pre+"vrcg-k3-anchor-exit", random, c.cfg, "parcg", false, 3, 30, true)
		add(pre+"vrcg-k3-blocking-anchor-exit", random, c.cfg, "parcg", true, 3, 30, true)
		add(pre+"vrcg-k0-anchor-exit", random, c.cfg, "parcg", false, 0, 12, true)
	}
	for _, p := range []int{25, 40} {
		pre := fmt.Sprintf("poisson5/P%d/", p)
		add(pre+"cg", small, latencyCfg(p), "parcg-cg", false, 0, 20, true)
		add(pre+"pipe", small, latencyCfg(p), "parcg-pipe", false, 0, 20, true)
		add(pre+"vrcg-k2", small, latencyCfg(p), "parcg", false, 2, 20, true)
		add(pre+"vrcg-k2-blocking", small, latencyCfg(p), "parcg", true, 2, 20, true)
	}
	for _, m := range []string{"parcg-cg", "parcg-pipe", "parcg"} {
		add("poisson24/P8/"+m+"-zero-iterations", poisson, latencyCfg(8), m, false, 2, 0, true)
	}
	return cs
}

func bitsOfReplay(c replayCase) replayBits {
	res := &engine.Result{Iterations: c.iters, Converged: c.converged, K: c.k}
	Replay(c.cfg, c.a, c.method, c.blocking, res)
	h := uint64(14695981039346656037)
	for _, v := range res.Clocks {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return replayBits{c.name, len(res.Clocks), h, res.Machine}
}

// replayBitsAtParent is what Replay charged at the commit before the
// cost-only replay (2a20c23), when every schedule still ran on
// zero-filled distributed vectors through the data-carrying
// collectives. The charges are the same additions in the same order, so
// nothing here may move.
var replayBitsAtParent = []replayBits{
	{"tridiag4096/P256/cg", 11, 0x8f693cef91006283, machine.Stats{Messages: 52714, Words: 52714, Flops: 781780}},
	{"tridiag4096/P256/pipe", 11, 0x37b75a0412b01966, machine.Stats{Messages: 31206, Words: 55782, Flops: 1117132}},
	{"tridiag4096/P256/vrcg-k2", 11, 0x904e78953916cf67, machine.Stats{Messages: 24544, Words: 344032, Flops: 3623872}},
	{"tridiag4096/P256/vrcg-k2-blocking", 11, 0x3aded5cada7c0567, machine.Stats{Messages: 24544, Words: 344032, Flops: 3623872}},
	{"poisson24/P8/cg", 65, 0xc75f1f6464b05a36, machine.Stats{Messages: 4054, Words: 24984, Flops: 741656}},
	{"poisson24/P8/pipe", 65, 0x9e19838d63be38f0, machine.Stats{Messages: 2522, Words: 25680, Flops: 979648}},
	{"poisson24/P8/vrcg-k2", 65, 0x4a654da9fe2f60f0, machine.Stats{Messages: 2268, Words: 55704, Flops: 2606320}},
	{"poisson24/P8/vrcg-k2-blocking", 65, 0xe565e7858df101e9, machine.Stats{Messages: 2268, Words: 55704, Flops: 2606320}},
	{"poisson24/P7/cg", 65, 0xd45f886ea408201d, machine.Stats{Messages: 2614, Words: 20554, Flops: 739823}},
	{"poisson24/P7/pipe", 65, 0xcb2ec56719576252, machine.Stats{Messages: 1728, Words: 21144, Flops: 977672}},
	{"poisson24/P7/vrcg-k2", 65, 0xba01ed0f4b52112c, machine.Stats{Messages: 1714, Words: 41878, Flops: 2582109}},
	{"poisson24/P7/vrcg-k2-blocking", 65, 0x44db0a8ffdb3e338, machine.Stats{Messages: 1714, Words: 41878, Flops: 2582109}},
	{"poisson24/P8/cg-unconverged", 10, 0xdeab6705ec55d3de, machine.Stats{Messages: 644, Words: 3864, Flops: 115096}},
	{"poisson24/P8/pipe-unconverged", 10, 0x91e3e1053251e948, machine.Stats{Messages: 418, Words: 4224, Flops: 156560}},
	{"poisson24/P8/vrcg-k2-unconverged", 10, 0x64d2b39a44e54624, machine.Stats{Messages: 378, Words: 8328, Flops: 398600}},
	{"poisson24/P8/vrcg-k2-blocking-unconverged", 10, 0xbfe2376359bd0d08, machine.Stats{Messages: 378, Words: 8328, Flops: 398600}},
	{"poisson24/P8/vrcg-k2-anchor-exit", 40, 0xec56c46e4ac6bea6, machine.Stats{Messages: 1406, Words: 34152, Flops: 1617176}},
	{"poisson24/P8/vrcg-k2-blocking-anchor-exit", 40, 0xb54aa5a116165230, machine.Stats{Messages: 1406, Words: 34152, Flops: 1617176}},
	{"random300/P13/latency/cg", 37, 0x6b7ccf21a8cb26ea, machine.Stats{Messages: 8322, Words: 63933, Flops: 312613}},
	{"random300/P13/latency/pipe", 37, 0xe2d4b6c8c5ea6c9f, machine.Stats{Messages: 7376, Words: 67285, Flops: 391500}},
	{"random300/P13/latency/cg-unconverged", 17, 0xccd90e1adc50897f, machine.Stats{Messages: 3842, Words: 29393, Flops: 143973}},
	{"random300/P13/latency/pipe-unconverged", 17, 0x64fac9e4ab993cfb, machine.Stats{Messages: 3420, Words: 31086, Flops: 180992}},
	{"random300/P13/latency/vrcg-k2", 37, 0x58c7387770a8319e, machine.Stats{Messages: 9762, Words: 113732, Flops: 992113}},
	{"random300/P13/latency/vrcg-k2-blocking", 37, 0xaac0c6075d520786, machine.Stats{Messages: 9762, Words: 113732, Flops: 992113}},
	{"random300/P13/latency/vrcg-k3-unconverged", 17, 0x24cfed14df083062, machine.Stats{Messages: 5888, Words: 67748, Flops: 579690}},
	{"random300/P13/latency/vrcg-k3-anchor-exit", 30, 0x49d008bdd86242f4, machine.Stats{Messages: 11830, Words: 135761, Flops: 1093464}},
	{"random300/P13/latency/vrcg-k3-blocking-anchor-exit", 30, 0x56d73e9f2784616b, machine.Stats{Messages: 11830, Words: 135761, Flops: 1093464}},
	{"random300/P13/latency/vrcg-k0-anchor-exit", 12, 0x887ee4cefaf84d6b, machine.Stats{Messages: 2850, Words: 31583, Flops: 275776}},
	{"random300/P13/default/cg", 37, 0x2fa22a92ca7ab264, machine.Stats{Messages: 8322, Words: 63933, Flops: 312613}},
	{"random300/P13/default/pipe", 37, 0x64ac8286e55e50cf, machine.Stats{Messages: 7376, Words: 67285, Flops: 391500}},
	{"random300/P13/default/cg-unconverged", 17, 0x52ea5eb0d94f802, machine.Stats{Messages: 3842, Words: 29393, Flops: 143973}},
	{"random300/P13/default/pipe-unconverged", 17, 0xcf2bacffd1f7979f, machine.Stats{Messages: 3420, Words: 31086, Flops: 180992}},
	{"random300/P13/default/vrcg-k2", 37, 0x3c4ecb6e29fb0b92, machine.Stats{Messages: 9762, Words: 113732, Flops: 992113}},
	{"random300/P13/default/vrcg-k2-blocking", 37, 0x3261f490d79520ca, machine.Stats{Messages: 9762, Words: 113732, Flops: 992113}},
	{"random300/P13/default/vrcg-k3-unconverged", 17, 0xff2cc3e2bd92a639, machine.Stats{Messages: 5888, Words: 67748, Flops: 579690}},
	{"random300/P13/default/vrcg-k3-anchor-exit", 30, 0x906de570c4b273b6, machine.Stats{Messages: 11830, Words: 135761, Flops: 1093464}},
	{"random300/P13/default/vrcg-k3-blocking-anchor-exit", 30, 0xddc2d3178da74389, machine.Stats{Messages: 11830, Words: 135761, Flops: 1093464}},
	{"random300/P13/default/vrcg-k0-anchor-exit", 12, 0xd401417615207a7c, machine.Stats{Messages: 2850, Words: 31583, Flops: 275776}},
	{"poisson5/P25/cg", 20, 0xfedf813a8f812efa, machine.Stats{Messages: 4962, Words: 4962, Flops: 13243}},
	{"poisson5/P25/pipe", 20, 0x5587b9ff75918221, machine.Stats{Messages: 3482, Words: 5204, Flops: 17786}},
	{"poisson5/P25/vrcg-k2", 20, 0xb00c31e5372ad0df, machine.Stats{Messages: 3706, Words: 27158, Flops: 148007}},
	{"poisson5/P25/vrcg-k2-blocking", 20, 0x991619a4d713c5e1, machine.Stats{Messages: 3706, Words: 27158, Flops: 148007}},
	{"poisson5/P40/cg", 20, 0xfedf813a8f812efa, machine.Stats{Messages: 4962, Words: 4962, Flops: 13243}},
	{"poisson5/P40/pipe", 20, 0x5587b9ff75918221, machine.Stats{Messages: 3482, Words: 5204, Flops: 17786}},
	{"poisson5/P40/vrcg-k2", 20, 0xb00c31e5372ad0df, machine.Stats{Messages: 3706, Words: 27158, Flops: 148007}},
	{"poisson5/P40/vrcg-k2-blocking", 20, 0x991619a4d713c5e1, machine.Stats{Messages: 3706, Words: 27158, Flops: 148007}},
	{"poisson24/P8/parcg-cg-zero-iterations", 0, 0xcbf29ce484222325, machine.Stats{Messages: 24, Words: 24, Flops: 1176}},
	{"poisson24/P8/parcg-pipe-zero-iterations", 0, 0xcbf29ce484222325, machine.Stats{Messages: 52, Words: 720, Flops: 13488}},
	{"poisson24/P8/parcg-zero-iterations", 0, 0xcbf29ce484222325, machine.Stats{Messages: 142, Words: 2376, Flops: 69816}},
}

func TestReplayBitsUnchangedFromParent(t *testing.T) {
	cases := replayCases()
	if len(cases) != len(replayBitsAtParent) {
		t.Fatalf("%d cases, %d recorded rows", len(cases), len(replayBitsAtParent))
	}
	for i, c := range cases {
		got, want := bitsOfReplay(c), replayBitsAtParent[i]
		if got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, want)
		}
	}
}

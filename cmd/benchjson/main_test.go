package main

import (
	"strings"
	"testing"
)

// Two canned `go test -bench` outputs of the same benchmarks: one core
// (go test appends no suffix) and two cores (-2 on every name).
// solve.Batch forks one solver per worker, so its allocations differ.
const oneCore = `goos: linux
goarch: amd64
pkg: vrcg
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBatch/rhs=8         	      20	    580000 ns/op	    1152 B/op	      29 allocs/op
BenchmarkSpMV/csr/poisson2d-32         	  100000	      7013 ns/op	 9000.00 MB/s	       0 B/op	       0 allocs/op
PASS
`

const twoCores = `goos: linux
pkg: vrcg
BenchmarkBatch/rhs=8-2         	      20	    410000 ns/op	    1872 B/op	      44 allocs/op
BenchmarkSpMV/csr/poisson2d-32-2         	  100000	      7100 ns/op	 8900.00 MB/s	       0 B/op	       0 allocs/op
PASS
`

func mustParse(t *testing.T, out string) Summary {
	t.Helper()
	sum, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name, out string
		procs     int
	}{{"one core", oneCore, 1}, {"two cores", twoCores, 2}} {
		sum := mustParse(t, tc.out)
		if sum.GOMAXPROCS != tc.procs {
			t.Errorf("%s: gomaxprocs = %d, want %d", tc.name, sum.GOMAXPROCS, tc.procs)
		}
		// The suffix is stripped, a name's own "-32" is not.
		if len(sum.Benchmarks) != 2 || sum.Benchmarks[0].Name != "BenchmarkBatch/rhs=8" ||
			sum.Benchmarks[1].Name != "BenchmarkSpMV/csr/poisson2d-32" {
			t.Errorf("%s: names = %+v", tc.name, sum.Benchmarks)
		}
	}
}

func TestAllocGateComparesLikeWithLike(t *testing.T) {
	one, two := mustParse(t, oneCore), mustParse(t, twoCores)

	// Same core count, more allocations: a regression, named.
	worse := mustParse(t, strings.Replace(oneCore, "29 allocs/op", "30 allocs/op", 1))
	bad, comparable := allocRegressions(one, worse)
	if !comparable || len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkBatch/rhs=8: 30 allocs/op, committed 29") {
		t.Errorf("same-core regression: comparable=%v bad=%q", comparable, bad)
	}
	if bad, comparable := allocRegressions(one, one); !comparable || len(bad) != 0 {
		t.Errorf("identical runs: comparable=%v bad=%q", comparable, bad)
	}

	// 29 vs 44 across core counts is not a regression, and neither is
	// anything measured against a file that predates the field.
	if bad, comparable := allocRegressions(one, two); comparable || len(bad) != 0 {
		t.Errorf("1 core vs 2 cores: comparable=%v bad=%q", comparable, bad)
	}
	legacy := one
	legacy.GOMAXPROCS = 0
	if _, comparable := allocRegressions(legacy, worse); comparable {
		t.Error("a committed file without gomaxprocs was compared")
	}
}

// Five runs of one benchmark, as go test -count 5 prints them, around a
// one-off row.
const fiveRuns = `pkg: vrcg
BenchmarkSpMV/dia         	    1000	      7300 ns/op	       0 B/op	       0 allocs/op
BenchmarkOnce         	      10	       100 ns/op	       8 B/op	       1 allocs/op
BenchmarkSpMV/dia         	    1000	      7100 ns/op	       0 B/op	       0 allocs/op
BenchmarkSpMV/dia         	    1000	      9900 ns/op	      16 B/op	       2 allocs/op
BenchmarkSpMV/dia         	    1000	      7000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSpMV/dia         	    1000	      7200 ns/op	       8 B/op	       1 allocs/op
PASS
`

// TestFoldRepeatedRuns: the runs of a name become one row in the order
// names first appear — the median run, its allocations with it, and the
// fastest and slowest ns/op — and a single run is its own range.
func TestFoldRepeatedRuns(t *testing.T) {
	sum := mustParse(t, fiveRuns)
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("%d rows, want 2: %+v", len(sum.Benchmarks), sum.Benchmarks)
	}
	b := sum.Benchmarks[0]
	if b.Name != "BenchmarkSpMV/dia" || b.NsPerOp != 7200 || b.NsMin != 7000 || b.NsMax != 9900 ||
		b.AllocsPerOp != 1 || b.BytesPerOp != 8 {
		t.Errorf("folded row = %+v, want median 7200 (its 1 alloc, 8 B) in [7000, 9900]", b)
	}
	if once := sum.Benchmarks[1]; once.NsPerOp != 100 || once.NsMin != 100 || once.NsMax != 100 {
		t.Errorf("single run = %+v, want 100 in [100, 100]", once)
	}
}

// TestDiffFlagsOnlyApartRanges: a slower median is a regression only
// when every fresh run is slower than every committed one; a committed
// row without a range reads as min = max = median.
func TestDiffFlagsOnlyApartRanges(t *testing.T) {
	row := func(med, lo, hi float64) Summary {
		return Summary{Benchmarks: []Benchmark{{Name: "BenchmarkX", NsPerOp: med, NsMin: lo, NsMax: hi}}}
	}
	for _, tc := range []struct {
		name        string
		prev, fresh Summary
		flagged     bool
	}{
		{"overlapping, median 20% slower", row(100, 90, 130), row(120, 110, 140), false},
		{"apart", row(100, 90, 105), row(120, 110, 140), true},
		{"apart, faster", row(120, 110, 140), row(100, 90, 105), false},
		{"one-run file inside the range", row(115, 0, 0), row(120, 110, 140), false},
		{"one-run file below the range", row(100, 0, 0), row(120, 110, 140), true},
	} {
		var out strings.Builder
		printDiff(&out, "prev.json", tc.prev, tc.fresh)
		if got := out.String(); strings.Contains(got, "<-- regression") != tc.flagged {
			t.Errorf("%s: table %q, flagged %v", tc.name, got, !tc.flagged)
		}
	}
}

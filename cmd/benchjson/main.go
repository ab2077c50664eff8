// Command benchjson converts `go test -bench` output on stdin into a
// JSON summary on stdout, so the Makefile's bench target can persist a
// machine-readable perf trajectory (BENCH_engine.json) across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'SpMV|PCGSolve' -benchmem . | go run ./cmd/benchjson > BENCH_engine.json
//
// Repeated runs of one benchmark (go test -count N) fold into one row:
// the median run's ns/op, allocations and other metrics, plus the
// fastest and slowest run's ns/op as ns_min and ns_max.
//
// With -prev FILE, the fresh results are additionally diffed against a
// previously committed summary and a per-benchmark delta table (median
// and min–max ns/op, MB/s) is printed to stderr — so `make bench` shows
// at a glance what moved before the JSON is overwritten. A row is
// flagged only when its min–max range and the committed one do not
// overlap; a file recorded from one run reads as min = max = median.
//
// With -o FILE, the summary is written to FILE atomically (temp file in
// the same directory + rename) instead of stdout, so an interrupted run
// can never leave a truncated summary or leak a half-written temp file
// into the repository.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// NsMin and NsMax are the fastest and slowest of the runs folded
	// into the row (zero in files written before the fold).
	NsMin       float64 `json:"ns_min,omitempty"`
	NsMax       float64 `json:"ns_max,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom metrics (e.g. "depth/iter", "iterations").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Summary is the emitted document.
type Summary struct {
	GeneratedAt time.Time `json:"generated_at"`
	GOOS        string    `json:"goos,omitempty"`
	GOARCH      string    `json:"goarch,omitempty"`
	CPU         string    `json:"cpu,omitempty"`
	Pkg         string    `json:"pkg,omitempty"`
	// GOMAXPROCS is the -N suffix go test put on every benchmark name
	// (1 when it put none). Allocation counts of code that forks per
	// worker depend on it, so -gate-allocs compares like with like only.
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	prevPath := flag.String("prev", "", "committed benchmark JSON to diff the fresh results against (delta table on stderr)")
	outPath := flag.String("o", "", "write the JSON summary to this file atomically (default: stdout)")
	gateAllocs := flag.Bool("gate-allocs", false, "fail (exit 1, previous file left in place) if any benchmark's allocs/op exceeds its value in -prev, when both were recorded at one GOMAXPROCS")
	flag.Parse()

	sum, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if *prevPath != "" {
		prev, ok := loadSummary(*prevPath)
		if ok {
			printDiff(os.Stderr, *prevPath, prev, sum)
		}
		if ok && *gateAllocs {
			bad, comparable := allocRegressions(prev, sum)
			if !comparable {
				fmt.Fprintf(os.Stderr, "benchjson: %s was recorded at GOMAXPROCS=%s, this run at %d: allocs/op not compared\n",
					*prevPath, procsCell(prev.GOMAXPROCS), sum.GOMAXPROCS)
			} else if len(bad) > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: allocs/op regressions vs %s:\n", *prevPath)
				for _, line := range bad {
					fmt.Fprintf(os.Stderr, "  %s\n", line)
				}
				fmt.Fprintf(os.Stderr, "benchjson: refusing to overwrite %s; fix the allocations or re-baseline deliberately\n", *prevPath)
				os.Exit(1)
			}
		}
	}
	if *outPath != "" {
		if err := writeAtomic(*outPath, sum); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output into a Summary.
func parse(r io.Reader) (Summary, error) {
	sum := Summary{GeneratedAt: time.Now().UTC()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			sum.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			sum.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			sum.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			sum.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		if b, ok := parseLine(line); ok {
			sum.Benchmarks = append(sum.Benchmarks, b)
		}
	}
	sum.GOMAXPROCS = stripProcs(sum.Benchmarks)
	sum.Benchmarks = fold(sum.Benchmarks)
	return sum, sc.Err()
}

// fold merges the runs of each name (go test -count N prints one line
// per run) into one row, in the order names first appear: the median
// run by ns/op — the lower middle one for an even count — with the
// fastest and slowest run's ns/op beside it. Every other field is the
// median run's, so -gate-allocs compares one run's allocations.
func fold(bs []Benchmark) []Benchmark {
	runs := make(map[string][]Benchmark, len(bs))
	var names []string
	for _, b := range bs {
		if _, seen := runs[b.Name]; !seen {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		b := rs[(len(rs)-1)/2]
		b.NsMin, b.NsMax = rs[0].NsPerOp, rs[len(rs)-1].NsPerOp
		out = append(out, b)
	}
	return out
}

// nsRange is the min–max ns/op of a row; a row without one (a file
// written from one run per name) is its own range.
func (b Benchmark) nsRange() (lo, hi float64) {
	if b.NsMin == 0 && b.NsMax == 0 {
		return b.NsPerOp, b.NsPerOp
	}
	return b.NsMin, b.NsMax
}

// stripProcs removes the -GOMAXPROCS suffix go test appends to every
// benchmark name and returns it. go test appends none at GOMAXPROCS=1,
// and a sub-benchmark may be named "poisson2d-32", so a numeric suffix
// counts only when every line of the run carries the same one.
func stripProcs(bs []Benchmark) int {
	procs := 0
	for _, b := range bs {
		i := strings.LastIndex(b.Name, "-")
		n, err := strconv.Atoi(b.Name[i+1:])
		if i <= 0 || err != nil || n < 2 || (procs != 0 && n != procs) {
			return 1
		}
		procs = n
	}
	if procs == 0 {
		return 1
	}
	for i := range bs {
		bs[i].Name = bs[i].Name[:strings.LastIndex(bs[i].Name, "-")]
	}
	return procs
}

// writeAtomic persists the summary under path via a same-directory temp
// file and rename, removing the temp file on any failure — a crashed or
// interrupted run cannot leave either a truncated summary or a stray
// temp file behind.
func writeAtomic(path string, sum Summary) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp.*")
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		tmp.Close()
		return fmt.Errorf("encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

// loadSummary reads a previously committed summary. A missing or
// unreadable file degrades to a note, never an error: the first run on
// a fresh clone has nothing to diff or gate against.
func loadSummary(path string) (prev Summary, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: no previous results to diff (%v)\n", err)
		return prev, false
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: previous file %s unparseable (%v), skipping diff\n", path, err)
		return prev, false
	}
	return prev, true
}

// printDiff prints a per-benchmark delta table of fresh against the
// summary previously committed at path to out. The table informs a
// human rather than failing the build, and flags a row only when the
// two min–max ranges are apart: within them, a delta of medians on a
// shared box is noise.
func printDiff(out io.Writer, path string, prev, fresh Summary) {
	old := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		old[b.Name] = b
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "\nbenchmark\told ns/op\tnew ns/op\tΔ median\told MB/s\tnew MB/s\t\n")
	var regressions []string
	for _, b := range fresh.Benchmarks {
		p, ok := old[b.Name]
		if !ok {
			fmt.Fprintf(w, "%s\t-\t%s\tnew\t-\t%s\t\n", b.Name, nsCell(b), mbCell(b.MBPerS))
			continue
		}
		delta := 0.0
		if p.NsPerOp > 0 {
			delta = (b.NsPerOp - p.NsPerOp) / p.NsPerOp
		}
		mark := ""
		if slower(p, b) {
			mark = "  <-- regression"
			regressions = append(regressions, b.Name)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%+.1f%%%s\t%s\t%s\t\n",
			b.Name, nsCell(p), nsCell(b), 100*delta, mark, mbCell(p.MBPerS), mbCell(b.MBPerS))
		delete(old, b.Name)
	}
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s\t%s\t-\tgone\t%s\t-\t\n", name, nsCell(old[name]), mbCell(old[name].MBPerS))
	}
	w.Flush()
	if len(regressions) > 0 {
		fmt.Fprintf(out, "\nbenchjson: %d benchmark(s) slower than %s, min–max ranges apart: %s\n",
			len(regressions), path, strings.Join(regressions, ", "))
	} else {
		fmt.Fprintf(out, "\nbenchjson: no min–max range slower than %s\n", path)
	}
}

// slower reports whether every fresh run was slower than every
// committed one.
func slower(prev, fresh Benchmark) bool {
	_, phi := prev.nsRange()
	flo, _ := fresh.nsRange()
	return flo > phi
}

// nsCell renders a row's median ns/op, with its range when it has one.
func nsCell(b Benchmark) string {
	lo, hi := b.nsRange()
	if lo == hi {
		return fmt.Sprintf("%.0f", b.NsPerOp)
	}
	return fmt.Sprintf("%.0f [%.0f–%.0f]", b.NsPerOp, lo, hi)
}

// allocRegressions compares fresh allocs/op against the committed
// summary: any benchmark allocating more than its committed value is a
// hard failure (unlike the informational ns/op table, allocation counts
// are deterministic at one GOMAXPROCS, so the gate has no noise to
// tolerate). Benchmarks absent from the committed file are new and pass.
// Summaries recorded at different GOMAXPROCS — or a committed one that
// predates the field — are not comparable: code that forks per worker
// allocates per worker.
func allocRegressions(prev, fresh Summary) (bad []string, comparable bool) {
	if prev.GOMAXPROCS != fresh.GOMAXPROCS {
		return nil, false
	}
	old := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		old[b.Name] = b
	}
	for _, b := range fresh.Benchmarks {
		if p, ok := old[b.Name]; ok && b.AllocsPerOp > p.AllocsPerOp {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op, committed %d", b.Name, b.AllocsPerOp, p.AllocsPerOp))
		}
	}
	return bad, true
}

// procsCell renders a summary's GOMAXPROCS; files written before the
// field existed do not say.
func procsCell(n int) string {
	if n == 0 {
		return "unknown"
	}
	return strconv.Itoa(n)
}

func mbCell(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89.0 MB/s   0 B/op   0 allocs/op   1.5 custom/metric
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	name := fields[0] // still carrying its -GOMAXPROCS suffix: see stripProcs
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "MB/s":
			b.MBPerS = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// env records what a run's numbers depend on besides the code. Runs
// are comparable only at equal nproc.
type env struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	Commit     string   `json:"commit"`
	Clients    int      `json:"connections"`
	Rates      []int    `json:"offered_rates_per_s"`
	StreamNote string   `json:"lib_stream_working_set"`
}

func collectEnv() env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Clients: serveClients,
		Rates: []int{int(rateLow), int(rateHigh)},
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		read := func(f string) string {
			blob, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(blob))
		}
		e.Caches = append(e.Caches, fmt.Sprintf("L%s %s %s", read("level"), read("type"), read("size")))
	}
	// The driver's checkout is not a git repository; "unknown" is then
	// the honest answer.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	n := streamGrid * streamGrid * streamGrid
	nnz := 7*n - 6*streamGrid*streamGrid
	e.StreamNote = fmt.Sprintf("Poisson3D(%d): n=%d nnz=%d, CSR %.1f MB + 5 cg vectors %.1f MB; the guide's 4x last-level cache is out of reach when L3 is a host-shared cache larger than the problem",
		streamGrid, n, nnz, float64(16*nnz+8*n)/1e6, float64(5*8*n)/1e6)
	return e
}

func printEnv(w io.Writer, e env) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s connections=%d rates=%v\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit, e.Clients, e.Rates)
	fmt.Fprintf(w, "env: caches %s\n", strings.Join(e.Caches, ", "))
	fmt.Fprintf(w, "env: lib-stream working set: %s\n", e.StreamNote)
}

func printDist(w io.Writer, label string, d dist) {
	fmt.Fprintf(w, "  %-18s p50 %.4f  q1 %.4f  q3 %.4f  p%g %.4f (%d beyond)  max %.4f  ms  n=%d\n",
		label, d.P50, d.Q1, d.Q3, 100*d.TailP, d.Tail, d.TailOver, d.Max, d.N)
}

// printResult prints every metric of a run by name with its unit, in
// dictionary order, and the detail the metrics were taken from.
func printResult(w io.Writer, r *result) {
	if d := r.detail; d != nil {
		fmt.Fprintf(w, "workload %s  seed %d  window %d s  build_s %.3f (not judged)  set-ups %.4v s\n",
			d.Workload, d.Seed, d.Seconds, d.BuildS, d.SetupS)
		printDist(w, "op_ms whole window", d.Op)
		fmt.Fprintf(w, "  %-18s p50 %.4f  ms  ops_per_s %.4f  (least disturbed of %d slices)\n",
			"op_ms by slice", d.Sliced.P50, d.Sliced.Rate, d.Sliced.Slices)
		for _, m := range ladderMethods {
			if pm, ok := d.PerMethod[m]; ok {
				printDist(w, "solve "+m, pm)
			}
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  fail_ratio %.6f\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	if r.layers != nil {
		r.layers.printBudgets(w)
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
}

// runChild runs this program once more with args, echoing what it
// prints, and decodes the result line it ends with. The error is the
// child's exit status.
func runChild(args ...string) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("benchmark %v printed no result line (%v)", args, runErr)
	}
	return &res, runErr
}

// runRecord is one pass of runAll over the whole set.
type runRecord struct {
	EndToEnd map[string]map[string]metricValue `json:"end_to_end"` // by workload
	Layers   *layerReport                      `json:"layers"`
}

// runAll is the developer's command: every workload as the driver runs
// it (one process each, nothing decorated), then one traced run, repeat
// times over; with repeat > 1 the runs are compared with each other
// against the bounds. It writes out/report.json and returns the exit
// code.
func runAll(seed int64, seconds, repeat int) int {
	code := 0
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL: "+format+"\n", args...)
		code = 1
	}
	common := []string{"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds)}
	var runs []runRecord
	for k := 0; k < repeat; k++ {
		fmt.Printf("== run %d of %d, seed %d, %d s windows\n", k+1, repeat, seed, seconds)
		rec := runRecord{EndToEnd: make(map[string]map[string]metricValue)}
		for _, spec := range workloadSpecs {
			res, err := runChild(append([]string{"--workload", spec.Name, "--trace", "0"}, common...)...)
			if res == nil {
				fail("%v", err)
				return code
			}
			if err != nil {
				fail("%s: %d of %d operations failed (%v)", spec.Name, res.Failed, res.Attempted, err)
			}
			rec.EndToEnd[spec.Name] = res.Metrics
		}
		// One traced run measures every layer and prints every budget; the
		// workload it names only selects whose budget the flat metrics hold.
		res, err := runChild(append([]string{"--workload", workloadSpecs[0].Name, "--trace", "1"}, common...)...)
		if res == nil {
			fail("%v", err)
			return code
		}
		if err != nil {
			fail("traced pass: %d of %d operations failed (%v)", res.Failed, res.Attempted, err)
		}
		if d := res.Metrics["krylov.cgfused_over_cg"].Value; d < 0.97 || d > 1.03 {
			fail("krylov.cgfused_over_cg = %.3f is outside 1.00 +- 0.03", d)
		}
		rec.Layers = new(layerReport)
		blob, err := os.ReadFile(filepath.Join(outDir, "layers.json"))
		if err == nil {
			err = json.Unmarshal(blob, rec.Layers)
		}
		if err != nil {
			fail("reading the traced run's report: %v", err)
		} else if !rec.Layers.printBudgets(io.Discard) {
			fail("a layer budget has a negative remainder")
		}
		runs = append(runs, rec)
	}
	if repeat > 1 {
		fmt.Println("== agreement between runs: (max - min) / min against the bound")
		for _, spec := range workloadSpecs {
			for _, m := range endToEnd {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, r := range runs {
					v := r.EndToEnd[spec.Name][m.Name].Value
					lo, hi = min(lo, v), max(hi, v)
				}
				rel := (hi - lo) / lo
				verdict := "ok"
				// Set-up times of a tenth of a second move by more than a
				// quarter on a scheduler hiccup: below 0.05 s absolute the
				// difference is not a disagreement.
				if rel > m.Bound && !(m.Name == "setup_s" && hi-lo < 0.05) {
					verdict = "DISAGREE"
					fail("%s %s: runs differ by %.1f%%, bound %.0f%%", spec.Name, m.Name, 100*rel, 100*m.Bound)
				}
				fmt.Printf("  %-12s %-12s min %12.5g max %12.5g  differ by %5.1f%%, bound %3.0f%%  %s\n",
					spec.Name, m.Name, lo, hi, 100*rel, 100*m.Bound, verdict)
			}
		}
	}
	blob, err := json.MarshalIndent(struct {
		Env     env         `json:"env"`
		Seed    int64       `json:"seed"`
		Seconds int         `json:"window_seconds"`
		Runs    []runRecord `json:"runs"`
	}{collectEnv(), seed, seconds, runs}, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "report.json"), blob, 0o644)
	}
	if err != nil {
		fail("writing the report: %v", err)
	}
	return code
}

// Command benchmark is the repository's judged benchmark: five
// workloads, from in-process library solves up to a booted cgserve
// under load, each reporting the end-to-end metrics named in
// BENCHMARK.json and, in a traced pass, a per-layer budget measured
// from outside the layers. README.md is the manual.
//
//	go run -C benchmark . --workload serve-solve --seed 1 --seconds 20 --trace 0
//	go run -C benchmark .                # every workload, then the traced pass
//	go run -C benchmark . --repeat 2     # twice, and compare the runs with each other
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// workload is one traffic shape. setup covers everything up to the
// first timed operation, warm-up included; run measures for dur,
// through timing decorators and span recorders when traced.
type workload interface {
	setup() error
	run(dur time.Duration, traced bool) (*runResult, error)
	rssPID() int // 0: this process does the work
	close()
}

func newWorkload(name string, seed int64, bin string) workload {
	switch name {
	case "lib-ladder":
		return &libLadder{seed: seed}
	case "lib-stream":
		return &libStream{seed: seed}
	case "serve-solve":
		return &serveSolve{poissonServe: poissonServe{seed: seed, serveBase: serveBase{bin: bin}}}
	case "serve-batch":
		return &serveBatch{poissonServe{seed: seed, serveBase: serveBase{bin: bin}}}
	case "serve-icp":
		return &serveICP{seed: seed, serveBase: serveBase{bin: bin}}
	}
	return nil
}

// A run sets up from nothing spec.setups times and reports the fastest
// as setup_s: twice before the timed window (the second instance is the
// one measured on) and the rest after it. A tenth-of-a-second set-up
// repeated back to back would sit every time inside one of the host's
// slow episodes; spreading the repeats across the run does not. The
// fastest, not the median: the host only ever adds time, and in a busy
// quarter of an hour it added 20-100% to most set-ups of a run, so that
// the median of five moved by 18% between two sets of ten runs.
const setupsBefore = 2

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads, plus what the report prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	firstErr error
	detail   *untracedDetail
	layers   *layerReport
}

// untracedDetail is what the human report shows beside the metrics.
type untracedDetail struct {
	Workload  string
	Seed      int64
	Seconds   int
	BuildS    float64
	SetupS    []float64
	Op        dist   // the whole window, for reference
	Sliced    sliced // what the metrics report
	PerMethod map[string]dist
}

// setUp builds the workload from nothing repeats times and returns the
// last instance with every set-up time.
func setUp(name string, seed int64, bin string, repeats int) (workload, []float64, error) {
	var times []float64
	for k := 0; ; k++ {
		w := newWorkload(name, seed, bin)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		times = append(times, time.Since(start).Seconds())
		if k == repeats-1 {
			return w, times, nil
		}
		w.close()
		runtime.GC() // the next set-up starts from a collected heap, as the first did
	}
}

func rssOf(w workload) float64 {
	pid := w.rssPID()
	if pid == 0 {
		pid = os.Getpid()
	}
	mb, err := peakRSSMB(pid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	return mb
}

// runUntraced is one judged run: the end-to-end metrics of one
// workload, nothing decorated.
func runUntraced(name string, seed int64, seconds int) (*result, error) {
	spec := specOf(name)
	var bin string
	var buildS float64
	if !spec.inProcess {
		var err error
		if bin, buildS, err = buildServer(); err != nil {
			return nil, err
		}
	}
	w, setups, err := setUp(name, seed, bin, setupsBefore)
	if err != nil {
		return nil, err
	}
	if w.rssPID() == 0 {
		resetOwnPeakRSS()
	}
	if s, ok := w.(*serveSolve); ok {
		s.closedOnly = true
	}
	rr, err := w.run(time.Duration(seconds)*time.Second, false)
	rss := rssOf(w)
	w.close()
	if err != nil {
		return nil, err
	}
	last, more, err := setUp(name, seed, bin, spec.setups-setupsBefore)
	if err != nil {
		return nil, err
	}
	last.close()
	setups = append(setups, more...)
	op := sliceWindow(&rr.op, spec)
	d := &untracedDetail{
		Workload: name, Seed: seed, Seconds: seconds, BuildS: buildS, SetupS: setups,
		Op: summarize(rr.op.latMS, spec.tailP), Sliced: op,
		PerMethod: make(map[string]dist),
	}
	for m, xs := range rr.perMethod {
		d.PerMethod[m] = summarize(xs, spec.tailP)
	}
	res := &result{
		Correct: rr.failed == 0 && rr.attempted > 0, Attempted: rr.attempted, Failed: rr.failed,
		firstErr: rr.firstErr, detail: d,
		Metrics: map[string]metricValue{
			"setup_s":     {sorted(setups)[0], "s"},
			"op_ms_p50":   {op.P50, "ms"},
			"ops_per_s":   {op.Rate, "1/s"},
			"peak_rss_mb": {rss, "MB"},
		},
	}
	return res, nil
}

func main() {
	workloadFlag := flag.String("workload", "all", "one of the five workload names, or all")
	seed := flag.Int64("seed", 1, "every input is generated from it")
	seconds := flag.Int("seconds", 20, "length of one run's timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, nothing decorated; 1: per-layer metrics and trace files")
	repeat := flag.Int("repeat", 1, "with -workload all: run the set this many times and compare the runs")
	flag.Parse()

	// An interrupt must not leave a cgserve behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	code := 1
	defer func() {
		// A panic is a bug here, never an outcome: stop the children,
		// then let it surface.
		if p := recover(); p != nil {
			killChildren()
			panic(p)
		}
		killChildren()
		os.Exit(code)
	}()

	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1 and there are no positional arguments")
		return
	}
	if *workloadFlag == "all" {
		code = runAll(*seed, *seconds, *repeat)
		return
	}
	if specOf(*workloadFlag) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadFlag)
		return
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = runUntraced(*workloadFlag, *seed, *seconds)
	} else {
		res, err = runTraced(*workloadFlag, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	printEnv(os.Stdout, collectEnv())
	printResult(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	fmt.Println(string(line))
	if res.Correct {
		code = 0
	}
}

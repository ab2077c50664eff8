// Command cgbench regenerates the reproduction experiments E1..E8 (see
// DESIGN.md section 4 and EXPERIMENTS.md): each experiment prints the
// table (or, for E8, the Figure 1 schedule) corresponding to one of the
// paper's claims.
//
// Usage:
//
//	cgbench -exp all          # run every tabular experiment
//	cgbench -exp e1           # one experiment
//	cgbench -exp e8 -k 6      # Figure 1 schedule with look-ahead 6
//	cgbench -exp e3 -csv      # emit CSV instead of an aligned table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vrcg/internal/bench"
	"vrcg/internal/vec"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: e1..e8 or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	k := flag.Int("k", 4, "look-ahead parameter for the e8 schedule rendering")
	flag.Parse()

	runners := map[string]func() *bench.Table{
		"e1":  bench.E1DepthScaling,
		"e2":  bench.E2Doubling,
		"e3":  bench.E3DegreeSweep,
		"e4":  bench.E4SequentialCost,
		"e5":  bench.E5Exactness,
		"e6":  bench.E6Stability,
		"e7":  bench.E7Successors,
		"e9":  bench.E9Startup,
		"e10": bench.E10WindowForm,
		"a1":  bench.A1ReanchorInterval,
		"a2":  bench.A2StabilizationModes,
		"a3":  bench.A3SpectralScaling,
		"a4":  bench.A4BatchedReductions,
		"a5":  bench.A5PartitionQuality,
		"a6":  bench.A6EngineThroughput,
	}

	// Which leaf-kernel bodies produced the numbers below; beside a CSV,
	// not in it.
	header := os.Stdout
	if *csv {
		header = os.Stderr
	}
	fmt.Fprintf(header, "cgbench: %s leaf kernels\n\n", vec.Kernels())

	emit := func(t *bench.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Format())
		}
	}

	switch id := strings.ToLower(*exp); id {
	case "all":
		for _, t := range bench.All() {
			emit(t)
		}
		fmt.Println(bench.E8Schedule(*k))
	case "ablations":
		for _, t := range bench.Ablations() {
			emit(t)
		}
	case "e8":
		fmt.Println(bench.E8Schedule(*k))
	default:
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "cgbench: unknown experiment %q (want e1..e10, a1..a6, ablations, or all)\n", *exp)
			os.Exit(2)
		}
		emit(run())
	}
}

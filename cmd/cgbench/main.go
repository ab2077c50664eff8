// Command cgbench prints the reproduction's experiment tables, and is
// the only program that does: the paper itself has no empirical tables,
// so its claims C1..C7 and Figure 1 are the reproducible content. Each
// table E1..E10 regenerates one claim (E8 is the Figure 1 schedule);
// claims_test.go asserts the same claims, and ARCHITECTURE.md "What the
// paper's schedules cost" describes the models the numbers come from.
// The ablations A1..A5 each isolate one mechanism of the implementation.
//
// Usage:
//
//	cgbench -exp all          # every table, then the Figure 1 schedule
//	cgbench -exp e1           # one experiment
//	cgbench -exp e8 -k 6      # Figure 1 schedule with look-ahead 6
//	cgbench -exp ablations    # A1..A5
//	cgbench -exp e3 -csv      # emit CSV instead of an aligned table
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"vrcg/internal/vec"
)

// experiment is one id -exp accepts: the tables it prints, then, when
// figure is set, the Figure 1 schedule.
type experiment struct {
	id     string
	tables func() []*table
	figure bool
}

func one(f func() *table) func() []*table { return func() []*table { return []*table{f()} } }

// experiments is every id -exp accepts, in the order the usage and the
// unknown-id message name them.
var experiments = []experiment{
	{"all", all, true},
	{"ablations", ablations, false},
	{"e1", one(e1DepthScaling), false},
	{"e2", one(e2Doubling), false},
	{"e3", one(e3DegreeSweep), false},
	{"e4", one(e4SequentialCost), false},
	{"e5", one(e5Exactness), false},
	{"e6", one(e6Stability), false},
	{"e7", one(e7Successors), false},
	{"e8", nil, true},
	{"e9", one(e9Startup), false},
	{"e10", one(e10WindowForm), false},
	{"a1", one(a1ReanchorInterval), false},
	{"a2", one(a2StabilizationModes), false},
	{"a3", one(a3SpectralScaling), false},
	{"a4", one(a4BatchedReductions), false},
	{"a5", one(a5PartitionQuality), false},
}

// ids lists the experiment ids, comma-separated.
func ids() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.id
	}
	return strings.Join(names, ", ")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments and outputs; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id, one of: "+ids())
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	k := fs.Int("k", 4, "look-ahead parameter for the e8 schedule rendering")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == strings.ToLower(*exp) })
	if i < 0 {
		fmt.Fprintf(stderr, "cgbench: unknown experiment %q (ids: %s)\n", *exp, ids())
		return 2
	}
	e := experiments[i]

	// Which leaf-kernel bodies produced the numbers below; beside a CSV,
	// not in it.
	header := stdout
	if *csv {
		header = stderr
	}
	fmt.Fprintf(header, "cgbench: %s leaf kernels\n\n", vec.Kernels())

	if e.tables != nil {
		for _, t := range e.tables() {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.Format())
			}
		}
	}
	if e.figure {
		fmt.Fprintln(stdout, e8Schedule(*k))
	}
	return 0
}

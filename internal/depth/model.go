// Package depth implements the dependency-depth cost model in which the
// paper states its complexity claims: a machine with at least N
// processors where an elementwise vector operation costs unit time, a
// summation fan-in over N values costs ceil(log2 N), and a sparse
// matrix row gather with d nonzeros costs ceil(log2 d).
//
// Values carry ready times. Operations produce new values whose ready
// time is the maximum input ready time plus the operation latency, so a
// program built from these operations computes its own critical path.
// Per-iteration parallel time is measured as the steady-state growth
// rate of the iteration completion times — exactly the quantity in the
// paper's abstract ("can perform a conjugate gradient iteration in time
// c*log(log(N))").
//
// The model holds the paper's own schedules: standard CG, the
// restructured iteration, and its sliding-window form (algos.go). The
// published successors — pipelined CG and s-step CG's blocking anchors —
// are modelled once, on the α–β simulated machine (package machine:
// parcg-pipe, and parcg with WithBlocking).
package depth

import (
	"fmt"
	"math"
)

// Clock is a point on the critical-path time axis (unitless "parallel
// steps", the paper's c=1 normalization).
type Clock = float64

// Model fixes the machine/problem parameters of the cost model.
type Model struct {
	// N is the vector length (and the assumed processor count).
	N int
	// Degree is d, the maximum nonzeros per matrix row.
	Degree int
}

// NewModel validates and returns a model.
func NewModel(n, degree int) Model {
	if n < 1 {
		panic(fmt.Sprintf("depth: vector length %d < 1", n))
	}
	if degree < 1 {
		panic(fmt.Sprintf("depth: row degree %d < 1", degree))
	}
	return Model{N: n, Degree: degree}
}

// Log2Ceil returns ceil(log2 x) for x >= 1 (0 for x = 1).
func Log2Ceil(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("depth: Log2Ceil(%d)", x))
	}
	k := 0
	v := 1
	for v < x {
		v <<= 1
		k++
	}
	return k
}

// Val is a scalar value on the timeline.
type Val struct{ Ready Clock }

// Vec is a distributed vector value on the timeline.
type Vec struct{ Ready Clock }

// At returns a value ready at the given time (for inputs/constants).
func At(t Clock) Val { return Val{Ready: t} }

// VecAt returns a vector ready at the given time.
func VecAt(t Clock) Vec { return Vec{Ready: t} }

func maxClock(ts ...Clock) Clock {
	m := math.Inf(-1)
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// ScalarOp combines scalars with one unit of latency (add, multiply,
// divide — the paper charges unit time for each).
func ScalarOp(ins ...Val) Val {
	m := Clock(0)
	if len(ins) > 0 {
		ts := make([]Clock, len(ins))
		for i, v := range ins {
			ts[i] = v.Ready
		}
		m = maxClock(ts...)
	}
	return Val{Ready: m + 1}
}

// ScalarFanIn sums n scalar values already available at the given ready
// times, with a binary-tree fan-in of depth ceil(log2 n). This is the
// summation the paper's recurrence relation (*) requires at every
// iteration: log(k) = log(log(N)) when k = log N.
func ScalarFanIn(ins []Val) Val {
	if len(ins) == 0 {
		return Val{Ready: 0}
	}
	ts := make([]Clock, len(ins))
	for i, v := range ins {
		ts[i] = v.Ready
	}
	return Val{Ready: maxClock(ts...) + Clock(Log2Ceil(len(ins)))}
}

// Elementwise applies a componentwise vector operation (axpy, scale,
// copy, pointwise multiply): latency 1 with N processors. Scalar
// operands (step sizes) gate the start time.
func Elementwise(scalars []Val, vecs ...Vec) Vec {
	ts := make([]Clock, 0, len(scalars)+len(vecs))
	for _, s := range scalars {
		ts = append(ts, s.Ready)
	}
	for _, v := range vecs {
		ts = append(ts, v.Ready)
	}
	return Vec{Ready: maxClock(ts...) + 1}
}

// MatVec applies the sparse operator: each row gathers d products with a
// fan-in of depth ceil(log2 d) plus one multiply step — the paper's
// log(d) term in §6.
func (m Model) MatVec(x Vec) Vec {
	return Vec{Ready: x.Ready + 1 + Clock(Log2Ceil(m.Degree))}
}

// Dot computes an inner product: one componentwise multiply plus the
// length-N summation fan-in of depth ceil(log2 N) — the dependency the
// whole paper is about.
func (m Model) Dot(a, b Vec) Val {
	return Val{Ready: maxClock(a.Ready, b.Ready) + 1 + Clock(Log2Ceil(m.N))}
}

// DotAvailableAt is Dot for operands whose ready time is already merged;
// convenience for issuing batched base inner products.
func (m Model) DotAvailableAt(t Clock) Val {
	return Val{Ready: t + 1 + Clock(Log2Ceil(m.N))}
}

// SteadyStateRate estimates the asymptotic per-iteration time from a
// sequence of iteration completion clocks, using the mean increment over
// the last half of the sequence (skipping the start-up transient).
func SteadyStateRate(completions []Clock) float64 {
	n := len(completions)
	if n < 2 {
		panic("depth: need at least two completion times")
	}
	lo := n / 2
	if lo == 0 {
		lo = 1
	}
	span := completions[n-1] - completions[lo-1]
	return span / float64(n-lo)
}

package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending
// sample by the nearest-rank rule: the smallest element with at least
// p of the sample at or below it. Nearest rank never interpolates, so a
// reported p99 is a latency some operation actually had, and
// len(s) - rank is exactly the number of samples beyond it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// beyond is the number of samples strictly above the nearest-rank
// p-quantile position: the "at least ten beyond it" test of a tail
// percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// median of an ascending sample, averaging the two middle elements of
// an even one (the convention of Python's statistics.median, which the
// driver's spread check uses).
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 of an ascending sample by the exclusive
// method of Python's statistics.quantiles(values, n=4), so spreads
// printed here are the spreads the driver computes.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// dist summarises one latency sample: median, quartiles, one tail
// percentile, and the sample count that makes the tail credible.
type dist struct {
	N        int
	P50      float64
	Q1       float64
	Q3       float64
	TailP    float64
	Tail     float64
	TailOver int
	Max      float64
}

func summarize(xs []float64, tailP float64) dist {
	s := sorted(xs)
	d := dist{N: len(s), TailP: tailP}
	if len(s) == 0 {
		return d
	}
	d.P50 = median(s)
	d.Q1, d.Q3 = quartiles(s)
	d.Tail = percentile(s, tailP)
	d.TailOver = beyond(len(s), tailP)
	d.Max = s[len(s)-1]
	return d
}

// sliced is a window summarised slice by slice. On a shared box the
// program's own speed is a floor that holds to a percent or two, and
// everything above it is the host: one core or both slow by 1.5-2x for
// a second or two at a time, a tenth to most of all seconds. A
// whole-window throughput is then mostly a count of those episodes, and
// even the median moves by half. So each statistic is taken per short
// slice of the window and the value reported is that of the least
// disturbed slice: the lowest slice median for a latency, the highest
// slice rate for a throughput. (Over ten runs on a busy afternoon of the
// host the whole-window median of lib-ladder spread 104% of its median
// and serve-solve's 138%; the best quarter-second slice 34% and 17%; in
// a quiet hour both statistics stay under 5%. A tenth-percentile over
// slices, and longer slices, were each worse than the best short slice
// on every workload.) The whole-window figures are printed beside it; the
// distance between the two is the disturbance.
type sliced struct {
	P50    float64
	Rate   float64
	Slices int
}

// sliceWindow cuts w into whole slices of sliceS seconds by completion
// instant (a trailing partial slice is dropped; a window shorter than
// four slices is one slice). A slice's rate is never its count over
// sliceS, which a few dozen operations per slice would quantise to whole
// percents. In process (the window's clock is time spent inside
// operations) it is the count over the summed latencies; otherwise it is
// the completions after the slice's first over the time they took, in
// slices where they span at least half the slice: a few completions
// bunched after a stall are not a rate.
func sliceWindow(w *window, spec *workloadSpec) sliced {
	type group struct {
		lat         []float64
		first, last float64 // completion instants, ms
	}
	k := int(w.elapsed.Seconds() / spec.sliceS)
	whole := k < 4
	if whole {
		k = 1
	}
	groups := make([]group, k)
	for i, done := range w.doneMS {
		j := 0
		if !whole {
			j = int(done / 1e3 / spec.sliceS)
		}
		if j >= k {
			continue
		}
		g := &groups[j]
		if len(g.lat) == 0 || done < g.first {
			g.first = done
		}
		g.last = max(g.last, done)
		g.lat = append(g.lat, w.latMS[i])
	}
	out := sliced{P50: math.Inf(1), Slices: k}
	for _, g := range groups {
		if len(g.lat) == 0 {
			continue
		}
		rate := float64(len(g.lat)) / w.elapsed.Seconds()
		switch {
		case spec.inProcess:
			rate = 1e3 / mean(g.lat)
		case g.last-g.first >= 500*spec.sliceS:
			rate = 1e3 * float64(len(g.lat)-1) / (g.last - g.first)
		}
		out.P50 = min(out.P50, median(sorted(g.lat)))
		out.Rate = max(out.Rate, rate)
	}
	if math.IsInf(out.P50, 1) { // nothing succeeded
		out.P50 = math.NaN()
	}
	return out
}

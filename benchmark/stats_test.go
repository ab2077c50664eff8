package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0, 1, 99}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
		if got := beyond(len(s), c.p); got != c.beyond {
			t.Errorf("beyond(100, %g) = %d, want %d", c.p, got, c.beyond)
		}
	}
	// A reported percentile is always a value that occurred.
	if got := percentile([]float64{1, 10}, 0.75); got != 10 {
		t.Errorf("percentile({1,10}, .75) = %g, want 10 (no interpolation)", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample must be NaN")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4)
// and statistics.median; these are its values for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		s := sorted(c.in)
		q1, q3 := quartiles(s)
		if q1 != c.q1 || q3 != c.q3 || median(s) != c.med {
			t.Errorf("%v: got q1 %g median %g q3 %g, want %g %g %g", c.in, q1, median(s), q3, c.q1, c.med, c.q3)
		}
	}
}

// A window whose slices are disturbed 80% of the time still reports the
// undisturbed latency and rate.
func TestSliceWindowIgnoresDisturbedSlices(t *testing.T) {
	w := window{}
	for slice := 0; slice < 20; slice++ {
		lat, n, span := 2.0, 100, 1000.0 // quiet: 100 ops of 2 ms per 1 s slice
		if slice%5 != 0 {
			lat, n = 3.5, 57 // disturbed
		}
		if slice == 7 {
			lat, n, span = 9, 3, 1 // stalled, then three completions within a millisecond
		}
		for i := 0; i < n; i++ {
			w.latMS = append(w.latMS, lat)
			w.doneMS = append(w.doneMS, float64(slice)*1000+float64(i)*span/float64(n))
		}
	}
	w.elapsed = 20 * time.Second
	got := sliceWindow(&w, &workloadSpec{sliceS: 1})
	if got.Slices != 20 || got.P50 != 2 || math.Abs(got.Rate-100) > 1e-9 {
		t.Errorf("sliceWindow = %+v, want 20 slices at p50 2, rate 100", got)
	}
	// Too short to slice: the whole window is one slice.
	w.elapsed = 3 * time.Second
	if got := sliceWindow(&w, &workloadSpec{sliceS: 1}); got.Slices != 1 {
		t.Errorf("a 3-slice window reported %d slices, want 1", got.Slices)
	}
}

// With the busy clock a slice's rate is count over summed latencies, so
// back-to-back operations that straddle slice edges do not quantise it.
func TestSliceWindowBusyRate(t *testing.T) {
	w := window{}
	for i := 0; i < 40; i++ {
		w.recordBusy(300*time.Millisecond, nil)
	}
	got := sliceWindow(&w, &workloadSpec{sliceS: 1, inProcess: true})
	if math.Abs(got.Rate-1/0.3) > 1e-9 || got.P50 != 300 {
		t.Errorf("busy sliceWindow = %+v, want rate %g and p50 300", got, 1/0.3)
	}
}

package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs operation i on worker w and returns the instant its
// reply was complete; anything it does after taking that instant
// (verifying the output) is outside the timed part. A non-nil error is
// a failed operation.
type opFunc func(w, i int) (done time.Time, err error)

// window is what one timed window measured.
type window struct {
	t0        time.Time
	latMS     []float64 // successful operations only
	doneMS    []float64 // parallel to latMS: completion instant, from t0
	lateMS    []float64 // open loop, in due order: send instant minus due instant
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	cpuGen    float64 // generator CPU seconds spent in the window
	cpuServer float64 // the child's CPU seconds over the window (serve-* only)
}

// recordBusy records an in-process operation that took d. The window's
// clock is then the time spent inside operations: what happens between
// them (verifying the output) is outside it.
func (w *window) recordBusy(d time.Duration, err error) {
	w.record(w.t0.Add(w.elapsed), w.t0.Add(w.elapsed+d), err)
	w.elapsed += d
}

// append adds a later window's samples to w, as if it had followed on
// the same clock.
func (w *window) append(o window) {
	off := float64(w.elapsed) / 1e6
	for _, d := range o.doneMS {
		w.doneMS = append(w.doneMS, off+d)
	}
	w.latMS = append(w.latMS, o.latMS...)
	w.lateMS = append(w.lateMS, o.lateMS...)
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.elapsed += o.elapsed
	w.cpuGen += o.cpuGen
	w.cpuServer += o.cpuServer
}

// runWorkers runs body on each of n goroutines and merges what they
// recorded.
func runWorkers(n int, body func(w int, out *window)) window {
	cpu0 := selfCPUSeconds()
	start := time.Now()
	parts := make([]window, n)
	for i := range parts {
		parts[i].t0 = start
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, &parts[w])
		}(w)
	}
	wg.Wait()
	all := window{t0: start, elapsed: time.Since(start), cpuGen: selfCPUSeconds() - cpu0}
	for _, p := range parts {
		all.latMS = append(all.latMS, p.latMS...)
		all.doneMS = append(all.doneMS, p.doneMS...)
		all.attempted += p.attempted
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
	}
	return all
}

func (w *window) record(from, done time.Time, err error) {
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.latMS = append(w.latMS, float64(done.Sub(from))/1e6)
	w.doneMS = append(w.doneMS, float64(done.Sub(w.t0))/1e6)
}

// closedLoop models callers that wait for each reply: every worker
// sends its next operation when the previous one completes, for dur.
// Operation indices are dealt worker-major (w, w+workers, ...), so the
// sequence each worker sends does not depend on timing.
func closedLoop(workers int, dur time.Duration, op opFunc) window {
	deadline := time.Now().Add(dur)
	return runWorkers(workers, func(w int, out *window) {
		for i := w; time.Now().Before(deadline); i += workers {
			start := time.Now()
			done, err := op(w, i)
			out.record(start, done, err)
		}
	})
}

// openLoop models independent users: operation i is due at
// start + i/rate whatever happened to the ones before it. Latency runs
// from the due instant, so time an operation spent waiting for a free
// connection counts, and the send instant's distance from the due
// instant is recorded as the generator's lateness. A worker that falls
// behind sends at once but each operation keeps its own due instant:
// a catch-up burst shows as lateness rather than hiding the stall.
func openLoop(workers int, rate float64, dur time.Duration, op opFunc) window {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(dur / interval)
	late := make([]float64, total) // by operation index, so in due order
	var next atomic.Int64
	res := runWorkers(workers, func(w int, out *window) {
		for {
			i := next.Add(1) - 1
			if i >= total {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			done, err := op(w, int(i))
			out.record(due, done, err)
			late[i] = float64(sent.Sub(due)) / 1e6
		}
	})
	res.lateMS = late
	return res
}

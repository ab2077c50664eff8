package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop keeps its schedule whatever the service does: with one
// worker and a service time of four intervals, operation i is due at
// i intervals but cannot start before 4i. Latency counted from the due
// instant grows with the backlog; the lateness says the generator (here:
// its single connection) was the one waiting.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const service = 8 * time.Millisecond
	op := func(_, _ int) (time.Time, error) {
		time.Sleep(service)
		return time.Now(), nil
	}
	w := openLoop(1, 500, 100*time.Millisecond, op) // 2 ms interval, 50 operations
	if w.attempted != 50 || w.failed != 0 || len(w.latMS) != 50 || len(w.lateMS) != 50 {
		t.Fatalf("attempted %d failed %d latencies %d lateness %d, want 50 0 50 50", w.attempted, w.failed, len(w.latMS), len(w.lateMS))
	}
	ms := float64(service) / 1e6
	if first := w.latMS[0]; first < ms || first > 3*ms {
		t.Errorf("first latency %g ms, want about the service time %g", first, ms)
	}
	// Operation 49 was due at 98 ms and could not start before 49*8 ms.
	if last := w.latMS[49]; last < 49*ms-98 {
		t.Errorf("last latency %g ms hides the backlog: it is due-time latency, so at least %g", last, 49*ms-98)
	}
	if w.lateMS[0] > 2 || w.lateMS[49] < 48*ms-98 {
		t.Errorf("lateness first %g last %g: the send instants' distance from the schedule must be reported", w.lateMS[0], w.lateMS[49])
	}
	for i := 1; i < len(w.lateMS); i++ {
		if w.lateMS[i] < w.lateMS[i-1]-1 {
			t.Fatalf("lateness must be in due order and growing here: %g then %g at %d", w.lateMS[i-1], w.lateMS[i], i)
		}
	}
}

// A fast service on an open loop is paced by the schedule, not by the
// service: no operation is sent early, and the window lasts as long as
// asked.
func TestOpenLoopKeepsTheSchedule(t *testing.T) {
	var sent atomic.Int64
	start := time.Now()
	var early atomic.Int64
	op := func(_, i int) (time.Time, error) {
		sent.Add(1)
		if time.Since(start) < time.Duration(i)*time.Millisecond-time.Millisecond {
			early.Add(1)
		}
		return time.Now(), nil
	}
	w := openLoop(2, 1000, 60*time.Millisecond, op)
	if sent.Load() != 60 || early.Load() != 0 {
		t.Errorf("sent %d (want 60), %d of them early", sent.Load(), early.Load())
	}
	if w.elapsed < 55*time.Millisecond {
		t.Errorf("window took %v: a burst, not a schedule", w.elapsed)
	}
	if got := float64(len(w.latMS)) / w.elapsed.Seconds(); got < 700 || got > 1100 {
		t.Errorf("completed %g ops/s at an offered 1000", got)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	boom := errors.New("boom")
	op := func(_, i int) (time.Time, error) {
		time.Sleep(time.Millisecond)
		if i%4 == 0 {
			return time.Time{}, boom
		}
		return time.Now(), nil
	}
	w := closedLoop(2, 40*time.Millisecond, op)
	if w.failed == 0 || w.attempted != w.failed+len(w.latMS) || !errors.Is(w.firstErr, boom) {
		t.Errorf("attempted %d failed %d ok %d err %v", w.attempted, w.failed, len(w.latMS), w.firstErr)
	}
	for _, l := range w.latMS {
		if l < 1 {
			t.Fatalf("closed-loop latency %g ms is below the service time", l)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is a span's duration minus what its direct children cover:
// children are clipped to the parent, overlapping children count once,
// and grandchildren are their parent's business.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},      // 20 covered
		{Name: "b", Parent: 0, Start: 25, End: 50},      // overlaps a: 20 more
		{Name: "c", Parent: 0, Start: 90, End: 120},     // clipped to 10
		{Name: "a.deep", Parent: 1, Start: 12, End: 18}, // not root's child
		{Name: "lonely", Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 6, 25, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsAndNilIsSilent(t *testing.T) {
	var off *tracer
	off.begin("x") // must not panic
	off.end()

	tr := newTracer(time.Now())
	tr.begin("op")
	tr.begin("solve")
	tr.begin("sparse.spmv")
	tr.end()
	tr.begin("sparse.spmv")
	tr.end()
	tr.end()
	tr.end()
	tr.begin("op")
	tr.end()
	parents := []int32{-1, 0, 1, 1, -1}
	if len(tr.spans) != len(parents) {
		t.Fatalf("%d spans recorded, want %d", len(tr.spans), len(parents))
	}
	for i, p := range parents {
		if tr.spans[i].Parent != p {
			t.Errorf("span %d (%s) has parent %d, want %d", i, tr.spans[i].Name, tr.spans[i].Parent, p)
		}
		if tr.spans[i].End < tr.spans[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	sum := summarizeSpans([]*tracer{tr, nil})
	if sum["sparse.spmv"].Count != 2 || sum["op"].Count != 2 {
		t.Errorf("summary counts %+v", sum)
	}
	// The parts of an operation add up to it.
	var selfTotal float64
	for _, lt := range sum {
		selfTotal += lt.SelfMS
	}
	if d := selfTotal - sum["op"].TotalMS; d > 1e-9 || d < -1e-9 {
		t.Errorf("self times sum to %g ms, operations to %g ms", selfTotal, sum["op"].TotalMS)
	}
}

func TestWriteTraceSharesRequestIDs(t *testing.T) {
	a, b := newTracer(time.Now()), newTracer(time.Now())
	for _, tr := range []*tracer{a, b} {
		tr.begin("op")
		tr.begin("http")
		tr.end()
		tr.end()
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := writeTrace(path, "serve-solve", 7, []*tracer{a, b}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(blob, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "serve-solve" || tf.Seed != 7 || tf.Recorded != 4 || tf.Truncated || len(tf.Spans) != 4 {
		t.Fatalf("trace header %+v with %d spans", tf, len(tf.Spans))
	}
	for i, s := range tf.Spans {
		if s.ID != i {
			t.Errorf("span %d has id %d: ids must be unique across tracers", i, s.ID)
		}
	}
	if tf.Spans[1].Parent != 0 || tf.Spans[1].Req != 0 || tf.Spans[3].Parent != 2 || tf.Spans[3].Req != 2 {
		t.Errorf("children must name their parent and share its request id: %+v", tf.Spans)
	}
}

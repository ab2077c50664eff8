package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root: one benchmark operation);
// the spans of one operation share its root.
type span struct {
	Name   string
	Parent int32
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// tracer records spans for one goroutine: begin/end nest by a stack, so
// a span's parent is whatever was open when it began. A nil *tracer
// records nothing, which lets traced and untraced passes share code.
// Spans stay in memory until the window ends (writeTrace).
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16), open: make([]int32, 0, 8)}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(time.Since(t.epoch))
	t.open = t.open[:n-1]
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the
// parent and overlapping children are counted once, so the rule holds
// for concurrent children too.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		cs := kids[int32(i)]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTotal is the aggregate of every span with one name.
type layerTotal struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarizeSpans(tracers []*tracer) map[string]layerTotal {
	out := make(map[string]layerTotal)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			lt := out[s.Name]
			lt.Count++
			lt.TotalMS += float64(s.End-s.Start) / 1e6
			lt.SelfMS += float64(self[i]) / 1e6
			out[s.Name] = lt
		}
	}
	return out
}

// maxTraceSpans bounds the spans written per file; the summary always
// covers every span recorded.
const maxTraceSpans = 20000

type traceSpanJSON struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1: root
	Req     int     `json:"req"`    // id of the operation's root span
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

type traceFile struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Recorded  int                   `json:"spans_recorded"`
	Truncated bool                  `json:"truncated"`
	Summary   map[string]layerTotal `json:"summary"`
	Spans     []traceSpanJSON       `json:"spans"`
}

// writeTrace writes the window's spans (ids made unique across
// tracers) and their per-name summary to path, and returns the summary.
func writeTrace(path, workload string, seed int64, tracers []*tracer) (map[string]layerTotal, error) {
	tf := traceFile{Workload: workload, Seed: seed, Summary: summarizeSpans(tracers)}
	base := 0
	for _, t := range tracers {
		if t == nil {
			continue
		}
		tf.Recorded += len(t.spans)
		self := selfTimes(t.spans)
		req := make([]int, len(t.spans))
		for i, s := range t.spans {
			// Parents precede children, so the parent's root is known.
			req[i] = base + i
			if s.Parent >= 0 {
				req[i] = req[s.Parent]
			}
			if len(tf.Spans) < maxTraceSpans {
				parent := -1
				if s.Parent >= 0 {
					parent = base + int(s.Parent)
				}
				tf.Spans = append(tf.Spans, traceSpanJSON{
					ID: base + i, Parent: parent, Req: req[i], Name: s.Name,
					StartUS: float64(s.Start) / 1e3, DurUS: float64(s.End-s.Start) / 1e3,
					SelfUS: float64(self[i]) / 1e3,
				})
			}
		}
		base += len(t.spans)
	}
	tf.Truncated = tf.Recorded > len(tf.Spans)
	blob, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	return tf.Summary, os.WriteFile(path, blob, 0o644)
}

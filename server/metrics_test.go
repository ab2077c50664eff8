package server_test

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"

	"vrcg/cluster"
	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// The bucket labels docs/api.md documents for each histogram ladder.
var (
	latencyLabels   = []string{"0.1", "0.25", "0.5", "1", "2.5", "5", "10", "25", "50", "100", "250", "500", "1000", "2500", "5000"}
	phaseLabels     = []string{"5", "10", "25", "50", "100", "250", "500", "1000", "2500", "5000", "10000", "25000", "50000", "100000"}
	iterationLabels = []string{"0", "1", "2", "5", "10", "25", "50", "100", "250", "500", "1000", "2500"}
)

// TestMetricsHistogramsOneShape drives every route that records a
// distribution — a cg and a parcg-pipe solve, a batch, a sequence's
// cold and warm step, a loopback-fleet solve — and checks that every
// histogram block renders the one shape: exactly count, sum, mean, max
// and buckets; cumulative, monotone buckets under the block's
// documented labels; "+Inf" equal to count; mean equal to sum/count.
func TestMetricsHistogramsOneShape(t *testing.T) {
	c := newClusterClient(t, 2)
	a, b := testSystem(8)
	c.upload("poisson", a)
	for _, method := range []string{"cg", "parcg-pipe"} {
		if status := c.post("/v1/solve", server.SolveRequest{Operator: "poisson", Method: method, RHS: b}, nil); status != http.StatusOK {
			t.Fatalf("%s solve: status %d", method, status)
		}
	}
	batch := server.BatchRequest{Operator: "poisson", Method: "cg", RHS: [][]float64{b, b}}
	if status := c.post("/v1/solve/batch", batch, nil); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	var seq server.SequenceInfo
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &seq); status != http.StatusCreated {
		t.Fatalf("sequence create: status %d", status)
	}
	for step := 0; step < 2; step++ {
		if status := c.post("/v1/sequence/"+seq.ID+"/step", server.SequenceStepRequest{RHS: b}, nil); status != http.StatusOK {
			t.Fatalf("sequence step %d: status %d", step, status)
		}
	}
	if status := c.post("/v1/cluster/operators", server.OperatorUpload{Name: "poisson", Matrix: *sparse.EncodeCSR(a)}, nil); status != http.StatusCreated {
		t.Fatalf("cluster upload: status %d", status)
	}
	var fleetSolve struct {
		Phases json.RawMessage `json:"phase_latency_us"`
	}
	if status := c.post("/v1/cluster/solve", server.ClusterSolveRequest{Operator: "poisson", Method: "pipecg", RHS: b, Tol: 1e-10}, &fleetSolve); status != http.StatusOK {
		t.Fatalf("cluster solve: status %d", status)
	}

	var met map[string]json.RawMessage
	if status := c.get("/metrics", &met); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var sequences struct {
		StepIterations json.RawMessage `json:"step_iterations"`
	}
	var fleet struct {
		PhaseLatency json.RawMessage `json:"phase_latency_us"`
	}
	for key, dst := range map[string]any{"sequences": &sequences, "cluster": &fleet} {
		if err := json.Unmarshal(met[key], dst); err != nil {
			t.Fatalf("metrics %s block: %v", key, err)
		}
	}

	fleetPhases := []string{"spmv", "halo", "reduction", "iteration"}
	for _, tc := range []struct {
		block  string
		raw    json.RawMessage
		nested bool     // method → phase → histogram
		want   []string // histograms that must be present, nested ones as method.phase
		labels []string
	}{
		{"solve_latency_ms", met["solve_latency_ms"], false,
			[]string{"cg", "parcg-pipe", "cg/batch", "cg/sequence", "pipecg/cluster"}, latencyLabels},
		{"solve_phase_latency_us", met["solve_phase_latency_us"], true,
			[]string{"parcg-pipe.spmv", "parcg-pipe.reduction_wait", "parcg-pipe.update"}, phaseLabels},
		{"sequences.step_iterations", sequences.StepIterations, false, []string{"cold", "warm"}, iterationLabels},
		{"cluster.phase_latency_us", fleet.PhaseLatency, true, prefixed("pipecg.", fleetPhases), phaseLabels},
		{"/v1/cluster/solve phase_latency_us", fleetSolve.Phases, false, fleetPhases, phaseLabels},
	} {
		hists := flatten(t, tc.block, tc.raw, tc.nested)
		for _, name := range tc.want {
			if _, ok := hists[name]; !ok {
				t.Errorf("%s: no %q histogram among %v", tc.block, name, keys(hists))
			}
		}
		for name, raw := range hists {
			checkHistogram(t, tc.block+" "+name, raw, tc.labels)
		}
	}
}

func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

// flatten decodes a block of histograms keyed by name, or by method
// then phase, into one map keyed "name" or "method.phase".
func flatten(t *testing.T, block string, raw json.RawMessage, nested bool) map[string]json.RawMessage {
	t.Helper()
	out := map[string]json.RawMessage{}
	if !nested {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v", block, err)
		}
		return out
	}
	var byMethod map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &byMethod); err != nil {
		t.Fatalf("%s: %v", block, err)
	}
	for method, phases := range byMethod {
		for phase, h := range phases {
			out[method+"."+phase] = h
		}
	}
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func checkHistogram(t *testing.T, name string, raw json.RawMessage, labels []string) {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := strings.Join(keys(fields), ","); got != "buckets,count,max,mean,sum" {
		t.Errorf("%s: fields %s, want buckets,count,max,mean,sum", name, got)
	}
	var h struct {
		Count   uint64            `json:"count"`
		Sum     float64           `json:"sum"`
		Mean    float64           `json:"mean"`
		Max     float64           `json:"max"`
		Buckets map[string]uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if h.Count == 0 {
		t.Errorf("%s: no observations", name)
		return
	}
	if len(h.Buckets) != len(labels)+1 {
		t.Errorf("%s: buckets %v, want the labels %v and +Inf", name, keys(h.Buckets), labels)
	}
	var prev uint64
	for _, l := range append(labels, "+Inf") {
		v, ok := h.Buckets[l]
		if !ok {
			t.Errorf("%s: no bucket %q", name, l)
		}
		if v < prev {
			t.Errorf("%s: bucket %q = %d below the one before it (%d)", name, l, v, prev)
		}
		prev = v
	}
	if h.Buckets["+Inf"] != h.Count {
		t.Errorf("%s: +Inf bucket %d != count %d", name, h.Buckets["+Inf"], h.Count)
	}
	if h.Mean != h.Sum/float64(h.Count) {
		t.Errorf("%s: mean %v != sum/count %v", name, h.Mean, h.Sum/float64(h.Count))
	}
}

// TestHistSnapshotIsNameable: code outside the module names the
// histogram shape the exported results carry as solve.HistSnapshot —
// the fleet's per-solve and per-method phases among them — and decodes
// a rendered block into it.
func TestHistSnapshotIsNameable(t *testing.T) {
	var solveReply server.ClusterSolveResult
	var fleetMetrics cluster.MetricsSnapshot
	var fleetSolve cluster.Result
	var (
		perSolve  map[string]solve.HistSnapshot            = solveReply.Phases
		perMethod map[string]map[string]solve.HistSnapshot = fleetMetrics.PhaseLatency
		perResult map[string]solve.HistSnapshot            = fleetSolve.Phases
	)
	_, _, _ = perSolve, perMethod, perResult
	var snap solve.HistSnapshot
	if err := json.Unmarshal([]byte(`{"count":2,"sum":3,"mean":1.5,"max":2,"buckets":{"1":1,"+Inf":2}}`), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count != 2 || snap.Mean != 1.5 || snap.Buckets["+Inf"] != 2 {
		t.Fatalf("decoded %+v", snap)
	}
}

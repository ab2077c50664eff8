package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The whole benchmark at tiny windows against a real cgserve child:
// every workload sets up, runs without a failed operation and tears
// down, and the traced pass measures every layer metric and writes a
// trace file per workload. Some twenty seconds; skipped under -short.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots cgserve children")
	}
	defer killChildren()
	bin, _, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloadSpecs {
		w, setups, err := setUp(spec.Name, 2, bin, 1)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := w.run(500*time.Millisecond, false)
		w.close()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if rr.attempted == 0 || rr.failed != 0 || len(rr.op.latMS) == 0 {
			t.Errorf("%s: attempted %d failed %d (%v), %d latencies", spec.Name, rr.attempted, rr.failed, rr.firstErr, len(rr.op.latMS))
		}
		if setups[0] <= 0 {
			t.Errorf("%s: set-up took %g s", spec.Name, setups[0])
		}
	}

	res, err := runTraced("serve-solve", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced pass: %d of %d operations failed: %v", res.Failed, res.Attempted, res.firstErr)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d layer metrics reported, want %d", len(res.Metrics), len(perLayer))
	}
	if p := res.Metrics["cluster.iters_parity"].Value; p < 0.98 || p > 1.02 {
		t.Errorf("cluster.iters_parity = %g: the distributed cg must take the shared-memory cg's iterations", p)
	}
	for _, name := range []string{"krylov.cg_iters", "pipecg.iters", "sstep.iters", "core.vrcg_iters"} {
		if res.Metrics[name].Value != res.Metrics["krylov.cg_iters"].Value {
			t.Errorf("%s = %g: the same recurrence on the same system must take cg's %g iterations", name, res.Metrics[name].Value, res.Metrics["krylov.cg_iters"].Value)
		}
	}
	for _, spec := range workloadSpecs {
		if fi, err := os.Stat(filepath.Join(outDir, "trace-"+spec.Name+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("no trace file for %s: %v", spec.Name, err)
		}
	}
}

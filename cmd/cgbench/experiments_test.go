package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableFormatAndCSV(t *testing.T) {
	tb := &table{ID: "T", Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("x,y", 0.0001)
	txt := tb.Format()
	if !strings.Contains(txt, "demo") || !strings.Contains(txt, "2.500") {
		t.Fatalf("format missing content:\n%s", txt)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("CSV escaping failed:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Fatalf("CSV has %d lines, want 3", lines)
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb := &table{Columns: []string{"one"}}
	tb.AddRow(1, 2)
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tb := e1DepthScaling()
	if len(tb.Rows) < 5 {
		t.Fatalf("E1 has %d rows", len(tb.Rows))
	}
	// CG column increases; VRCG near-flat; speedup increasing.
	prevCG, prevSp := 0.0, 0.0
	var firstVR, lastVR float64
	for i, row := range tb.Rows {
		cg := parseF(t, row[2])
		vr := parseF(t, row[3])
		sp := parseF(t, row[4])
		if cg <= prevCG {
			t.Fatalf("E1 row %d: CG rate not increasing", i)
		}
		if sp < prevSp-0.2 {
			t.Fatalf("E1 row %d: speedup decreasing substantially", i)
		}
		if i == 0 {
			firstVR = vr
		}
		lastVR = vr
		prevCG, prevSp = cg, sp
	}
	if lastVR > firstVR+4 {
		t.Fatalf("E1: VRCG rate grew from %v to %v — not double-log flat", firstVR, lastVR)
	}
}

func TestE2Shape(t *testing.T) {
	tb := e2Doubling()
	last := tb.Rows[len(tb.Rows)-1]
	ratio := parseF(t, last[3])
	if ratio < 1.6 || ratio > 2.2 {
		t.Fatalf("E2 final ratio %v not ~2", ratio)
	}
	first := parseF(t, tb.Rows[0][3])
	if ratio < first {
		t.Fatalf("E2 ratio should approach 2: first %v, last %v", first, ratio)
	}
}

func TestE3Shape(t *testing.T) {
	tb := e3DegreeSweep()
	// Rates must be non-decreasing down the d column for each N column.
	for col := 2; col <= 4; col++ {
		prev := 0.0
		for i, row := range tb.Rows {
			v := parseF(t, row[col])
			if v < prev-1e-9 {
				t.Fatalf("E3 col %d row %d: rate decreased with d", col, i)
			}
			prev = v
		}
	}
	// Largest-d row dominated by log d: roughly equal across N columns.
	lastRow := tb.Rows[len(tb.Rows)-1]
	lo := parseF(t, lastRow[2])
	hi := parseF(t, lastRow[4])
	if hi-lo > 4 {
		t.Fatalf("E3: large-d rates should be N-independent: %v vs %v", lo, hi)
	}
}

func TestE4Shape(t *testing.T) {
	tb := e4SequentialCost()
	if len(tb.Rows) < 4 {
		t.Fatalf("E4 has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		mv := parseF(t, row[3])
		if row[0] == "CG" || row[0] == "VRCG" || row[0] == "PIPECG" {
			if mv > 1.6 {
				t.Fatalf("E4 %s: matvec/it = %v, want ~1", row[0], mv)
			}
		}
		// Convergence required for the numerically safe configurations;
		// VRCG with k=4 under the paper-pure (window-only) profile may
		// honestly fail — that row documents the instability.
		if row[0] == "VRCG" && row[1] == "4" {
			continue
		}
		if row[7] != "true" {
			t.Fatalf("E4 %s k=%s did not converge", row[0], row[1])
		}
	}
}

func TestE5Shape(t *testing.T) {
	tb := e5Exactness()
	// With re-anchoring, drift of (p,Ap) stays small for every k.
	for _, row := range tb.Rows {
		if row[1] != "4" {
			continue
		}
		if row[4] == "breakdown" {
			t.Fatalf("E5 k=%s with re-anchoring broke down", row[0])
		}
		if d := parseF(t, row[4]); d > 1e-2 {
			t.Fatalf("E5 k=%s: anchored drift %v too large", row[0], d)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tb := e6Stability()
	// For kappa=10 every method converges.
	okSmall := 0
	for _, row := range tb.Rows {
		if row[0] == "10.00" || row[0] == "10.000" || row[0] == "10" {
			if row[5] == "true" {
				okSmall++
			}
		}
	}
	if okSmall < 4 {
		t.Fatalf("E6: only %d converged solves at kappa=10", okSmall)
	}
}

func TestE7Shape(t *testing.T) {
	tb := e7Successors()
	// At the largest alpha, CG/VRCG speedup must exceed the low-alpha one.
	first := parseF(t, tb.Rows[0][4])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][4])
	if last <= first {
		t.Fatalf("E7: speedup should grow with alpha: %v -> %v", first, last)
	}
	if last < 2 {
		t.Fatalf("E7: high-latency CG/VRCG speedup only %v", last)
	}
	// Blocking (s-step semantics) total time is never below pipelined.
	for i, row := range tb.Rows {
		if parseF(t, row[6]) < parseF(t, row[5])-1e-9 {
			t.Fatalf("E7 row %d: blocking total below pipelined", i)
		}
	}
}

func TestE8ContainsFigure(t *testing.T) {
	out := e8Schedule(4)
	for _, want := range []string{"Figure 1", "REDUCE", "SCALAR", "inner products"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E8 output missing %q", want)
		}
	}
	// Default k.
	if !strings.Contains(e8Schedule(0), "Figure 1") {
		t.Fatal("E8 default k failed")
	}
}

func TestAllRuns(t *testing.T) {
	tables := all()
	if len(tables) != 9 {
		t.Fatalf("All returned %d tables", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Rows) == 0 {
			t.Fatalf("table %q empty", tb.ID)
		}
		if seen[tb.ID] {
			t.Fatalf("duplicate table id %s", tb.ID)
		}
		seen[tb.ID] = true
		if tb.Format() == "" || tb.CSV() == "" {
			t.Fatalf("table %s renders empty", tb.ID)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tb := e9Startup()
	for i, row := range tb.Rows {
		be := parseF(t, row[5])
		if be < 1 || be > 40 {
			t.Fatalf("E9 row %d: break-even %v implausible", i, be)
		}
		if parseF(t, row[4]) >= parseF(t, row[3]) {
			t.Fatalf("E9 row %d: VRCG rate not below CG", i)
		}
	}
	// Startup grows with k (more family matvecs).
	first := parseF(t, tb.Rows[0][2])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][2])
	if last <= first {
		t.Fatal("E9: startup should grow with k")
	}
}

func TestE10Shape(t *testing.T) {
	tb := e10WindowForm()
	var firstW, lastW float64
	for i, row := range tb.Rows {
		c := parseF(t, row[3])
		w := parseF(t, row[4])
		if w > c+1e-9 {
			t.Fatalf("E10 row %d: window form %v above contract form %v", i, w, c)
		}
		if i == 0 {
			firstW = w
		}
		lastW = w
	}
	if lastW > firstW+1 {
		t.Fatalf("E10: window form should be flat in N: %v -> %v", firstW, lastW)
	}
}

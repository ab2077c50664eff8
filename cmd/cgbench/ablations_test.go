package main

import (
	"strings"
	"testing"
)

func TestA1Shape(t *testing.T) {
	tb := a1ReanchorInterval()
	if len(tb.Rows) < 5 {
		t.Fatalf("A1 has %d rows", len(tb.Rows))
	}
	// The tightest interval must converge with tiny drift.
	var tight, never []string
	for _, row := range tb.Rows {
		if row[0] == "2" {
			tight = row
		}
		if row[0] == "never" {
			never = row
		}
	}
	if tight == nil || never == nil {
		t.Fatal("A1 missing interval rows")
	}
	if tight[2] != "true" {
		t.Fatal("A1: interval 2 did not converge")
	}
	if never[2] == "true" && never[4] != "breakdown" {
		// Un-anchored run converged: then its drift must exceed the
		// anchored one's.
		if parseF(t, never[4]) < parseF(t, tight[4]) {
			t.Fatal("A1: un-anchored drift smaller than anchored")
		}
	}
}

func TestA2Shape(t *testing.T) {
	tb := a2StabilizationModes()
	if len(tb.Rows) != 4 {
		t.Fatalf("A2 has %d rows", len(tb.Rows))
	}
	byMode := map[string][]string{}
	for _, row := range tb.Rows {
		byMode[row[0]] = row
	}
	for _, m := range []string{"family-refresh", "residual-replace"} {
		if byMode[m][2] != "true" {
			t.Fatalf("A2: %s did not converge", m)
		}
	}
	// Stabilized modes pay more matvecs per iteration than window-only.
	if byMode["window-only"][2] == "true" {
		wo := parseF(t, byMode["window-only"][4])
		fr := parseF(t, byMode["family-refresh"][4])
		if fr <= wo {
			t.Fatal("A2: family refresh should cost extra matvecs")
		}
	}
}

func TestA3Shape(t *testing.T) {
	tb := a3SpectralScaling()
	// At k=8 the unscaled Gram sequence overflows double precision
	// (||A||^(4k) ~ 1e409): with scaling on, the recurrence itself
	// converges and the divergence guard never fires; with scaling off,
	// the recurrence dies and any convergence is the guard's
	// true-residual restart bailing the run out (guard-restarts > 0).
	for _, row := range tb.Rows {
		if row[0] != "8" {
			continue
		}
		if row[1] == "on" {
			if row[3] != "true" {
				t.Fatal("A3: k=8 with scaling should converge")
			}
			if row[5] != "0" {
				t.Fatalf("A3: k=8 with scaling should not need guard restarts, got %s", row[5])
			}
		}
		if row[1] == "off" && row[3] == "true" && row[5] == "0" {
			t.Fatal("A3: k=8 without scaling converged without the guard's help — the overflow ablation no longer bites")
		}
	}
}

func TestA4Shape(t *testing.T) {
	tb := a4BatchedReductions()
	for i, row := range tb.Rows {
		if parseF(t, row[5]) <= 1 {
			t.Fatalf("A4 row %d: batching shows no advantage", i)
		}
	}
	// Advantage grows with the batch width w.
	small := parseF(t, tb.Rows[0][5]) // k=2
	big := parseF(t, tb.Rows[1][5])   // k=8 same P
	if big <= small {
		t.Fatalf("A4: wider batches should amortize more: %v vs %v", small, big)
	}
}

func TestA5Shape(t *testing.T) {
	tb := a5PartitionQuality()
	rows := map[string][]string{}
	for _, row := range tb.Rows {
		rows[row[0]] = row
	}
	nat, shuf, rcm := rows["natural grid"], rows["random shuffle"], rows["RCM of shuffle"]
	if nat == nil || shuf == nil || rcm == nil {
		t.Fatal("A5 missing rows")
	}
	// Shuffling makes every processor talk to nearly every other and
	// multiplies the transfer volume; RCM restores near-natural costs.
	if parseF(t, shuf[2]) <= parseF(t, nat[2])*2 {
		t.Fatal("A5: shuffle should multiply the message count")
	}
	if parseF(t, shuf[3]) <= parseF(t, nat[3])*2 {
		t.Fatal("A5: shuffle should multiply the halo volume")
	}
	if parseF(t, rcm[2]) > parseF(t, nat[2])+1 {
		t.Fatal("A5: RCM should restore the message count")
	}
	if parseF(t, rcm[4]) >= parseF(t, shuf[4]) {
		t.Fatal("A5: RCM should cut the matvec time")
	}
}

func TestAblationsAll(t *testing.T) {
	tabs := ablations()
	if len(tabs) != 5 {
		t.Fatalf("Ablations returned %d tables", len(tabs))
	}
	for _, tb := range tabs {
		if !strings.HasPrefix(tb.ID, "A") || len(tb.Rows) == 0 {
			t.Fatalf("bad ablation table %q", tb.ID)
		}
	}
}

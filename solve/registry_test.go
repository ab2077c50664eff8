package solve_test

import (
	"slices"
	"testing"

	"vrcg/solve"
)

// TestRegistryPublicFace pins every method's name, summary and
// operator capabilities: the CLIs' help text, the server's
// GET /v1/methods body and the fleet's method gate all read them, so a
// change to the registry's layout must leave them exactly as they are.
func TestRegistryPublicFace(t *testing.T) {
	type row struct {
		summary string
		caps    solve.Caps
	}
	want := map[string]row{
		"bicgstab":   {"BiCGStab for square nonsymmetric systems (van der Vorst), workspace-backed", solve.Caps{Nonsymmetric: true}},
		"blockcg":    {"a second name for cg, kept for wire compatibility, workspace-backed", solve.Caps{}},
		"blockpcg":   {"a second name for pcg, kept for wire compatibility, workspace-backed", solve.Caps{}},
		"cg":         {"standard Hestenes-Stiefel CG (paper §2), workspace-backed", solve.Caps{Sharded: true}},
		"cgfused":    {"a second name for cg, kept for wire compatibility, workspace-backed", solve.Caps{Sharded: true}},
		"cgnr":       {"CG on the normal equations: least-squares min ||b-Ax|| over rectangular operators, workspace-backed", solve.Caps{Nonsymmetric: true, Rectangular: true}},
		"cr":         {"conjugate residuals (minimizes ||b - A x||), workspace-backed", solve.Caps{}},
		"gmres":      {"restarted GMRES(m) for square nonsymmetric systems (WithRestart m), workspace-backed", solve.Caps{Nonsymmetric: true}},
		"gropp":      {"Gropp asynchronous CG (two overlapped reductions/iter), workspace-backed", solve.Caps{Sharded: true}},
		"lsqr":       {"LSQR (Paige-Saunders bidiagonalization): stable least-squares over rectangular operators, workspace-backed", solve.Caps{Nonsymmetric: true, Rectangular: true}},
		"minres":     {"MINRES (symmetric indefinite baseline), workspace-backed", solve.Caps{}},
		"parcg":      {"the paper's VRCG: cg's iterates on three blocking reductions a solve, real-parallel pipelined anchors (WithLookahead k), workspace-backed", solve.Caps{}},
		"parcg-cg":   {"standard CG with two real blocking reductions per iteration (the paper's baseline), workspace-backed", solve.Caps{}},
		"parcg-pipe": {"Ghysels-Vanroose pipelined CG with phase timing and, on a pool, the reduction genuinely in flight behind the matvec, workspace-backed", solve.Caps{}},
		"pcg":        {"preconditioned CG (WithPreconditioner; identity default), workspace-backed", solve.Caps{Sharded: true}},
		"pipecg":     {"Ghysels-Vanroose pipelined CG (one fused reduction/iter), workspace-backed", solve.Caps{Sharded: true}},
		"sd":         {"steepest descent with exact line search (baseline), workspace-backed", solve.Caps{}},
		"sstep":      {"Chronopoulos-Gear s-step CG (WithBlockSize s, batched reductions), workspace-backed", solve.Caps{Sharded: true}},
		"vrcg":       {"the paper's restructured look-ahead CG (WithLookahead k, §5 recurrences), workspace-backed", solve.Caps{}},
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(names)
	if got := solve.Methods(); !slices.Equal(got, names) {
		t.Fatalf("Methods() = %v, want %v", got, names)
	}
	for name, w := range want {
		if got := solve.Summary(name); got != w.summary {
			t.Errorf("Summary(%q) = %q, want %q", name, got, w.summary)
		}
		if got := solve.MethodCaps(name); got != w.caps {
			t.Errorf("MethodCaps(%q) = %+v, want %+v", name, got, w.caps)
		}
	}
	if got := solve.Summary("nope"); got != "" {
		t.Errorf("Summary of an unknown name = %q, want empty", got)
	}
	if got := solve.MethodCaps("nope"); got != (solve.Caps{}) {
		t.Errorf("MethodCaps of an unknown name = %+v, want the zero Caps", got)
	}
}

package main

import (
	"fmt"

	"vrcg/internal/machine"
	"vrcg/internal/parcg"
	"vrcg/internal/vec"
	"vrcg/solve"
	"vrcg/sparse"
)

// The ablations A1..A5 each isolate one mechanism of the implementation
// and show what it buys.

// a1ReanchorInterval sweeps the re-anchoring interval: the stabilization
// frequency trades direct inner products against recurrence drift.
func a1ReanchorInterval() *table {
	t := &table{
		ID:      "A1",
		Title:   "ablation: re-anchor interval (VRCG k=3, Poisson2D 16x16, tol 1e-9)",
		Columns: []string{"interval", "iters", "converged", "true rel residual", "drift (p,Ap)", "dots/iter"},
	}
	a := sparse.Poisson2D(16)
	b := vec.New(a.Dim())
	vec.Random(b, 61)
	bn := vec.Norm2(b)
	for _, interval := range []int{-1, 2, 4, 8, 16, 32} {
		res, err := solve.MustNew("vrcg").Solve(a, b,
			solve.WithLookahead(3), solve.WithTol(1e-9), solve.WithMaxIter(4000),
			solve.WithReanchorEvery(interval), solve.WithValidateEvery(1))
		label := fmt.Sprintf("%d", interval)
		if interval < 0 {
			label = "never"
		}
		if !usable(err) {
			t.AddRow(label, "-", false, "breakdown", "-", "-")
			continue
		}
		t.AddRow(label, res.Iterations, res.Converged,
			res.TrueResidualNorm/bn, res.Drift.MaxRelPAP,
			float64(res.Stats.InnerProducts)/float64(res.Iterations))
	}
	t.Notes = append(t.Notes,
		"small intervals: more direct dots, tiny drift; large/never: drift grows, convergence degrades",
		"the default interval is max(2, ceil(8/(k+1)))")
	return t
}

// a2StabilizationModes contrasts the stabilization mechanisms at a fixed
// interval: window-only re-anchoring, family refresh, and residual
// replacement.
func a2StabilizationModes() *table {
	t := &table{
		ID:      "A2",
		Title:   "ablation: stabilization mode (VRCG k=3, interval 8, Poisson1D 128, tol 1e-9)",
		Columns: []string{"mode", "iters", "converged", "true rel residual", "matvec/iter"},
	}
	a := sparse.Poisson1D(128)
	b := vec.New(128)
	vec.Random(b, 62)
	bn := vec.Norm2(b)

	base := []solve.Option{solve.WithLookahead(3), solve.WithTol(1e-9), solve.WithMaxIter(4000)}
	type mode struct {
		name string
		opts []solve.Option
	}
	modes := []mode{
		{"none", []solve.Option{solve.WithReanchorEvery(-1)}},
		{"window-only", []solve.Option{solve.WithReanchorEvery(8), solve.WithWindowOnlyReanchor(true)}},
		{"family-refresh", []solve.Option{solve.WithReanchorEvery(8)}},
		{"residual-replace", []solve.Option{solve.WithResidualReplaceEvery(8)}},
	}
	for _, m := range modes {
		res, err := solve.MustNew("vrcg").Solve(a, b, append(append([]solve.Option{}, base...), m.opts...)...)
		if !usable(err) {
			t.AddRow(m.name, "-", false, "breakdown", "-")
			continue
		}
		t.AddRow(m.name, res.Iterations, res.Converged,
			res.TrueResidualNorm/bn,
			float64(res.Stats.MatVecs)/float64(res.Iterations))
	}
	t.Notes = append(t.Notes,
		"none/window-only: cheapest per iteration but drift-limited;",
		"family-refresh and residual-replace pay 2k+1 matvecs per interval and stay accurate")
	return t
}

// a3SpectralScaling isolates the Gershgorin scaling of the distributed
// solver: without it the Gram magnitudes span ||A||^(4k).
func a3SpectralScaling() *table {
	t := &table{
		ID:      "A3",
		Title:   "ablation: spectral scaling in the distributed VRCG (P=8, kappa~2.6, ||A||~6e12, tol 1e-8)",
		Columns: []string{"k", "scaling", "iters", "converged", "rel residual", "guard restarts"},
	}
	// Same conditioning as the latency workload but with a physically
	// large norm (a fine-mesh stiffness scale): unscaled Gram sequences
	// reach ||A||^(4k) ~ 1e409 at k=8 — past double-precision overflow —
	// while the scaled solver never sees magnitudes above O(1).
	a := sparse.TridiagToeplitz(512, 4.2e12, -1e12)
	bs := vec.New(512)
	vec.Random(bs, 63)
	bn := vec.Norm2(bs)
	for _, k := range []int{2, 4, 8} {
		for _, noScale := range []bool{false, true} {
			res, err := solve.MustNew("parcg").Solve(a, bs,
				solve.WithProcessors(8), solve.WithLookahead(k),
				solve.WithTol(1e-8), solve.WithMaxIter(600),
				solve.WithSpectralScaling(!noScale))
			label := "on"
			if noScale {
				label = "off"
			}
			if !usable(err) || res.X == nil {
				t.AddRow(k, label, "-", false, "breakdown", "-")
				continue
			}
			restarts := 0
			if res.Drift != nil {
				restarts = res.Drift.Replacements
			}
			// True residual of the original system (the adapter computes
			// it serially from the gathered solution).
			t.AddRow(k, label, res.Iterations, res.Converged, res.TrueResidualNorm/bn, restarts)
		}
	}
	t.Notes = append(t.Notes,
		"unscaled Gram entries overflow double precision (||A||^(4k) ~ 1e409 at k=8):",
		"the recurrence dies and only the divergence guard's true-residual restart",
		"(guard-restarts column) saves the run; scaling by the Gershgorin bound keeps",
		"the Gram O(1) so the recurrence itself stays finite; residual is ||b-Ax||/||b||")
	return t
}

// a4BatchedReductions isolates the collective-level design choice of
// batching the 3(4k+1) base inner products into one allreduce.
func a4BatchedReductions() *table {
	t := &table{
		ID:      "A4",
		Title:   "ablation: batched vs separate base-product reductions (alpha=16, beta=0.01)",
		Columns: []string{"P", "k", "words", "batched time", "separate time", "ratio"},
	}
	for _, p := range []int{64, 256, 1024} {
		for _, k := range []int{2, 8} {
			w := 3 * (4*k + 1)
			batched := machine.New(machine.Config{P: p, Alpha: 16, Beta: 0.01, FlopTime: 0.001})
			batched.Allreduce(w)

			separate := machine.New(machine.Config{P: p, Alpha: 16, Beta: 0.01, FlopTime: 0.001})
			for j := 0; j < w; j++ {
				separate.Allreduce(1)
			}
			t.AddRow(p, k, w, batched.MaxClock(), separate.MaxClock(),
				separate.MaxClock()/batched.MaxClock())
		}
	}
	t.Notes = append(t.Notes,
		"one batched allreduce pays the alpha*log(P) latency once; separate reductions pay it per word —",
		"the batching is what makes the paper's 6k+O(1) base products affordable")
	return t
}

// a5PartitionQuality isolates how the matrix ordering drives the halo
// (communication) volume of the row-block partition: the natural grid
// order, a random shuffle, and RCM recovery.
func a5PartitionQuality() *table {
	t := &table{
		ID:      "A5",
		Title:   "ablation: ordering vs halo volume (2D Poisson 24x24, P=8 row blocks)",
		Columns: []string{"ordering", "bandwidth", "halo msgs/proc", "total halo words", "matvec time (alpha=16)"},
	}
	p := 8
	natural := sparse.Poisson2D(24)

	// Random symmetric shuffle.
	n := natural.Dim()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	s := uint64(99)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	shuffled, err := sparse.PermuteSymmetric(natural, perm)
	if err != nil {
		panic(err)
	}
	rcmPerm := sparse.RCMOrder(shuffled)
	recovered, err := sparse.PermuteSymmetric(shuffled, rcmPerm)
	if err != nil {
		panic(err)
	}

	for _, cs := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"natural grid", natural},
		{"random shuffle", shuffled},
		{"RCM of shuffle", recovered},
	} {
		pt := parcg.NewPartition(cs.a, p)
		m := machine.New(machine.Config{P: p, Alpha: 16, Beta: 0.01, FlopTime: 0.001})
		pt.MulVec(m)
		t.AddRow(cs.name, sparse.Bandwidth(cs.a), pt.HaloDegree(), pt.TotalHaloWords(), m.MaxClock())
	}
	t.Notes = append(t.Notes,
		"a shuffled ordering makes every processor talk to every other (halo explodes);",
		"RCM restores a banded structure and near-natural communication volume")
	return t
}

// Ablations runs every ablation table.
func ablations() []*table {
	return []*table{
		a1ReanchorInterval(),
		a2StabilizationModes(),
		a3SpectralScaling(),
		a4BatchedReductions(),
		a5PartitionQuality(),
	}
}

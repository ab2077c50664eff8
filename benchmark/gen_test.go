package main

import (
	"math"
	"reflect"
	"testing"
)

// Same seed, same inputs, byte for byte; another seed, other inputs.
func TestGeneratorsAreDeterministic(t *testing.T) {
	if !reflect.DeepEqual(genRHS(9, 64, 3), genRHS(9, 64, 3)) {
		t.Error("genRHS differs between two calls with one seed")
	}
	if reflect.DeepEqual(genRHS(9, 64, 3), genRHS(10, 64, 3)) {
		t.Error("genRHS ignores the seed")
	}
	if !reflect.DeepEqual(genScene(9, 50), genScene(9, 50)) || reflect.DeepEqual(genScene(9, 50), genScene(10, 50)) {
		t.Error("genScene is not a function of exactly the seed")
	}
	if genMisalignment(9, 0) != genMisalignment(9, 0) || genMisalignment(9, 0) == genMisalignment(9, 1) ||
		genMisalignment(9, 0) == genMisalignment(10, 0) {
		t.Error("genMisalignment is not a function of exactly (seed, registration)")
	}
	a, b := newRegistration(genScene(9, 50), genMisalignment(9, 0)), newRegistration(genScene(9, 50), genMisalignment(9, 0))
	if !reflect.DeepEqual(a.vals, b.vals) || !reflect.DeepEqual(a.rhs, b.rhs) {
		t.Error("the first linearisation differs between two builds with one seed")
	}
}

// lib-ladder's right-hand side changes with the seed only by a sign and
// a power of two, so every seed asks every schedule for the same
// arithmetic.
func TestLadderRHSIsAnExactRescaling(t *testing.T) {
	base := genLadderRHS(1, 128)
	distinct := false
	for seed := int64(2); seed < 12; seed++ {
		b := genLadderRHS(seed, 128)
		ratio := b[0] / base[0]
		if frac, _ := math.Frexp(math.Abs(ratio)); frac != 0.5 {
			t.Fatalf("seed %d scales by %g, not a power of two", seed, ratio)
		}
		for i := range b {
			if b[i] != ratio*base[i] {
				t.Fatalf("seed %d: element %d is not base*%g exactly", seed, i, ratio)
			}
		}
		distinct = distinct || ratio != 1
	}
	if !distinct {
		t.Error("ten seeds gave one right-hand side")
	}
}

// A registration's true increment undoes its misalignment: composing
// the inverse transform as (w, v) is beyond this test, but zero pose
// error at the truth's inverse and a positive one at the start are not.
func TestPoseErrorMeasuresDistanceFromTruth(t *testing.T) {
	g := newRegistration(genScene(4, 100), genMisalignment(4, 0))
	if e := g.poseError(); e < 1e-3 {
		t.Errorf("pose error %g before any step: the misalignment is missing", e)
	}
	// Rotation inverse is the transpose; est = truth^-1.
	r := g.truth.r
	inv := mat3{r[0], r[3], r[6], r[1], r[4], r[7], r[2], r[5], r[8]}
	ti := inv.mulVec(g.truth.t)
	g.est = pose{r: inv, t: vec3{-ti[0], -ti[1], -ti[2]}}
	if e := g.poseError(); e > 1e-12 {
		t.Errorf("pose error %g at the exact inverse", e)
	}
	g.linearize()
	for i, v := range g.rhs {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("point-to-plane residual %d is %g at the exact inverse", i, v)
		}
	}
}

package main

import (
	"math"
	"math/rand"
)

// Every input is a pure function of the seed: same seed, same bytes on
// the wire. Sub-streams are split by a fixed odd multiplier so the rhs
// set and the scene never share a stream.
func subSeed(seed int64, stream int64) int64 { return seed*0x9E3779B1 + stream }

// genRHS returns count right-hand sides of length n, uniform in [-1,1).
func genRHS(seed int64, n, count int) [][]float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	out := make([][]float64, count)
	for i := range out {
		b := make([]float64, n)
		for j := range b {
			b[j] = 2*rng.Float64() - 1
		}
		out[i] = b
	}
	return out
}

// genLadderRHS is lib-ladder's right-hand side. The look-ahead schedule
// ("parcg") is chaotic in its input: over ten random directions it took
// between 336 and 7192 iterations on this operator, and scaling one
// vector by 3 doubled its count, while every other schedule stayed
// within 2%. A random direction per seed would make the ladder measure
// the seed. So the direction is fixed and the seed picks only a sign and
// a power-of-two scale: both are exact in floating point, so every seed
// gives different input bits and every schedule identical arithmetic.
func genLadderRHS(seed int64, n int) []float64 {
	b := genRHS(0, n, 1)[0]
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	scale := math.Ldexp(1, rng.Intn(33)-16)
	if rng.Intn(2) == 1 {
		scale = -scale
	}
	for i := range b {
		b[i] *= scale
	}
	return b
}

// Rigid-body math for the ICP traffic shape (the examples/icp
// construction: a height-field scan misaligned by a known transform,
// re-registered by point-to-plane linearisation).
type vec3 [3]float64
type mat3 [9]float64 // row-major

var identity3 = mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}

func (m mat3) mulVec(v vec3) vec3 {
	return vec3{
		m[0]*v[0] + m[1]*v[1] + m[2]*v[2],
		m[3]*v[0] + m[4]*v[1] + m[5]*v[2],
		m[6]*v[0] + m[7]*v[1] + m[8]*v[2],
	}
}

func (m mat3) mul(b mat3) mat3 {
	var out mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				out[3*i+j] += m[3*i+k] * b[3*k+j]
			}
		}
	}
	return out
}

func cross(a, b vec3) vec3 {
	return vec3{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
}

func dot3(a, b vec3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// rodrigues is the exponential map: rotation by |w| about w/|w|.
func rodrigues(w vec3) mat3 {
	th := math.Sqrt(dot3(w, w))
	if th < 1e-12 {
		return identity3
	}
	k := vec3{w[0] / th, w[1] / th, w[2] / th}
	c, s := math.Cos(th), math.Sin(th)
	v := 1 - c
	return mat3{
		c + k[0]*k[0]*v, k[0]*k[1]*v - k[2]*s, k[0]*k[2]*v + k[1]*s,
		k[1]*k[0]*v + k[2]*s, c + k[1]*k[1]*v, k[1]*k[2]*v - k[0]*s,
		k[2]*k[0]*v - k[1]*s, k[2]*k[1]*v + k[0]*s, c + k[2]*k[2]*v,
	}
}

// pose is the rigid transform p -> R p + t.
type pose struct {
	r mat3
	t vec3
}

func (p pose) apply(q vec3) vec3 {
	v := p.r.mulVec(q)
	return vec3{v[0] + p.t[0], v[1] + p.t[1], v[2] + p.t[2]}
}

// scene is the fixed target scan every registration of a run aligns
// to: samples of a smooth height field with analytic normals (the
// curvature conditions all six degrees of freedom).
type scene struct {
	target, normals []vec3
}

func genScene(seed int64, npts int) *scene {
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	sc := &scene{target: make([]vec3, npts), normals: make([]vec3, npts)}
	for i := range sc.target {
		x, y := 2*rng.Float64()-1, 2*rng.Float64()-1
		z := 0.3*math.Sin(2*x) + 0.2*math.Cos(3*y) + 0.1*x*y
		n := vec3{-(0.6*math.Cos(2*x) + 0.1*y), -(-0.6*math.Sin(3*y) + 0.1*x), 1}
		s := math.Sqrt(dot3(n, n))
		sc.normals[i] = vec3{n[0] / s, n[1] / s, n[2] / s}
		sc.target[i] = vec3{x, y, z}
	}
	return sc
}

// genMisalignment is registration k's known transform: a rotation of
// up to ~0.1 rad per axis and a translation of up to 0.15.
func genMisalignment(seed int64, k int) pose {
	rng := rand.New(rand.NewSource(subSeed(seed, 1000+int64(k))))
	u := func(a float64) float64 { return a * (2*rng.Float64() - 1) }
	return pose{
		r: rodrigues(vec3{u(0.1), u(0.1), u(0.1)}),
		t: vec3{u(0.15), u(0.15), u(0.15)},
	}
}

// registration is one ICP outer loop's client state: the misaligned
// source cloud, the current pose estimate, and the linearised system
// (vals: the rows x 6 Jacobian, row-major; rhs: minus the
// point-to-plane residuals) that each step ships.
type registration struct {
	sc        *scene
	truth     pose
	source    []vec3
	est       pose
	vals, rhs []float64
}

func newRegistration(sc *scene, truth pose) *registration {
	g := &registration{
		sc: sc, truth: truth, est: pose{r: identity3},
		source: make([]vec3, len(sc.target)),
		vals:   make([]float64, 6*len(sc.target)),
		rhs:    make([]float64, len(sc.target)),
	}
	for i, q := range sc.target {
		g.source[i] = truth.apply(q)
	}
	g.linearize()
	return g
}

// linearize rebuilds vals and rhs at the current estimate: row i is
// [p x n, n] with p the moved source point and n the target normal.
func (g *registration) linearize() {
	for i, s := range g.source {
		p := g.est.apply(s)
		n := g.sc.normals[i]
		tq := g.sc.target[i]
		pxn := cross(p, n)
		copy(g.vals[6*i:], pxn[:])
		copy(g.vals[6*i+3:], n[:])
		g.rhs[i] = -dot3(n, vec3{p[0] - tq[0], p[1] - tq[1], p[2] - tq[2]})
	}
}

// advance composes the solved increment x = (w, v) into the estimate,
// pose <- exp(w)*(R, t) + v, and re-linearises.
func (g *registration) advance(x []float64) {
	dr := rodrigues(vec3{x[0], x[1], x[2]})
	t := dr.mulVec(g.est.t)
	g.est = pose{r: dr.mul(g.est.r), t: vec3{t[0] + x[3], t[1] + x[4], t[2] + x[5]}}
	g.linearize()
}

// poseError is how far est∘truth is from the identity: Frobenius norm
// of the rotation error plus the translation norm.
func (g *registration) poseError() float64 {
	comp := g.est.r.mul(g.truth.r)
	e := 0.0
	for i, v := range identity3 {
		e += (comp[i] - v) * (comp[i] - v)
	}
	t := g.est.apply(g.truth.t)
	return math.Sqrt(e) + math.Sqrt(dot3(t, t))
}

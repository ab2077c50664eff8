package core

import "fmt"

// CoeffPair represents a vector symbolically as a polynomial combination
// of the Krylov base at some anchor iteration m:
//
//	v = sum_i Rho[i] A^i r(m)  +  sum_i Pi[i] A^i p(m)
//
// This is the representation behind the paper's equation (*): applying
// the CG recurrences to CoeffPairs instead of vectors produces, after k
// steps, exactly the coefficients a_i, b_i, c_i of (*) — polynomials in
// the step parameters {a_{n-1}..a_{n-k}, lambda_{n-1}..lambda_{n-k}}.
// The package uses it to validate the sliding-window engine and to
// demonstrate claim C3 constructively.
type CoeffPair struct {
	Rho []float64 // coefficients of A^i r(m)
	Pi  []float64 // coefficients of A^i p(m)
}

// NewCoeffR returns the representation of r(m) itself: Rho = [1].
func NewCoeffR() CoeffPair { return CoeffPair{Rho: []float64{1}, Pi: nil} }

// NewCoeffP returns the representation of p(m) itself: Pi = [1].
func NewCoeffP() CoeffPair { return CoeffPair{Rho: nil, Pi: []float64{1}} }

// Clone returns an independent copy.
func (c CoeffPair) Clone() CoeffPair {
	out := CoeffPair{
		Rho: make([]float64, len(c.Rho)),
		Pi:  make([]float64, len(c.Pi)),
	}
	copy(out.Rho, c.Rho)
	copy(out.Pi, c.Pi)
	return out
}

// Degree returns the highest power of A appearing with any coefficient
// slot (structural degree; trailing zeros still count as allocated).
func (c CoeffPair) Degree() int {
	d := len(c.Rho) - 1
	if e := len(c.Pi) - 1; e > d {
		d = e
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Coeffs is the allocation-free form of a CoeffPair: the representation
// lives in fixed backing buffers, and the CG steps overwrite it in place.
// It is the one implementation of the step algebra — StepCGR, StepCGP
// and AddScaled are allocating wrappers over it — so a kernel stepping
// Coeffs rounds exactly as the symbolic reference does.
type Coeffs struct {
	CoeffPair // prefixes of the buffers below

	rhoBuf, piBuf []float64
}

// NewCoeffs returns the zero vector's representation (both slices empty)
// with room for capacity coefficients per slot, powers 0..capacity-1.
// Steps that would exceed it panic.
func NewCoeffs(capacity int) Coeffs {
	c := Coeffs{rhoBuf: make([]float64, capacity), piBuf: make([]float64, capacity)}
	c.SetZero()
	return c
}

// SetZero makes c the zero vector.
func (c *Coeffs) SetZero() { c.Rho, c.Pi = c.rhoBuf[:0], c.piBuf[:0] }

// SetR makes c the representation of r(m) itself: Rho = [1].
func (c *Coeffs) SetR() {
	c.SetZero()
	c.Rho = append(c.Rho, 1)
}

// SetP makes c the representation of p(m) itself: Pi = [1].
func (c *Coeffs) SetP() {
	c.SetZero()
	c.Pi = append(c.Pi, 1)
}

// StepR sets c = r − λ A p, the residual half of a CG step.
func (c *Coeffs) StepR(r, p CoeffPair, lambda float64) { c.set(r, -lambda, p, 1) }

// StepP sets c = r + a p, the direction half of a CG step.
func (c *Coeffs) StepP(r, p CoeffPair, alpha float64) { c.set(r, alpha, p, 0) }

// Axpy sets c += s y: the iterate's update x += λ p.
func (c *Coeffs) Axpy(s float64, y CoeffPair) { c.set(c.CoeffPair, s, y, 0) }

// set writes x + s A^shift y (shift 0 or 1) into c's buffers. c may be
// x or y, at either shift.
func (c *Coeffs) set(x CoeffPair, s float64, y CoeffPair, shift int) {
	c.Rho = addScaledInto(c.rhoBuf, x.Rho, y.Rho, s, shift)
	c.Pi = addScaledInto(c.piBuf, x.Pi, y.Pi, s, shift)
}

// addScaledInto writes x + s A^shift y into buf and returns the written
// prefix. Multiplying by A lifts every power by one, so A y is y behind
// a leading zero; the scaled term is added across A^shift y's length
// only, and an empty y adds nothing. Entries are written last to first,
// each after the only reads of x[i] and y[i-shift] that need it, so buf
// may back x or y.
func addScaledInto(buf, x, y []float64, s float64, shift int) []float64 {
	ylen := 0
	if len(y) > 0 {
		ylen = len(y) + shift
	}
	out := buf[:max(len(x), ylen)]
	for i := len(out) - 1; i >= 0; i-- {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		if i < ylen {
			yi := 0.0
			if i >= shift {
				yi = y[i-shift]
			}
			v += s * yi
		}
		out[i] = v
	}
	return out
}

// AddScaled returns c + s*other.
func (c CoeffPair) AddScaled(s float64, other CoeffPair) CoeffPair {
	out := NewCoeffs(max(len(c.Rho), len(c.Pi), len(other.Rho), len(other.Pi)))
	out.set(c, s, other, 0)
	return out.CoeffPair
}

// StepCGR advances the residual representation alone: r' = r - λ A p.
// Splitting the step lets callers evaluate (r', r') — and hence alpha —
// before committing the direction update, mirroring Families.StepR.
func StepCGR(r, p CoeffPair, lambda float64) CoeffPair {
	out := NewCoeffs(max(len(r.Rho), len(r.Pi), len(p.Rho)+1, len(p.Pi)+1))
	out.StepR(r, p, lambda)
	return out.CoeffPair
}

// StepCGP completes the step: p' = r' + a p.
func StepCGP(rNew, p CoeffPair, alpha float64) CoeffPair {
	return rNew.AddScaled(alpha, p)
}

// StepCG advances the pair of representations (r, p) by one CG iteration
// with scalars lambda (λ_n) and alpha (a_{n+1}):
//
//	r' = r - λ A p,   p' = r' + a p
//
// returning the new pair. Degrees grow by one per step, so after k steps
// the representations span powers 0..k — the base set the paper's
// look-ahead uses.
func StepCG(r, p CoeffPair, lambda, alpha float64) (rNew, pNew CoeffPair) {
	rNew = StepCGR(r, p, lambda)
	pNew = StepCGP(rNew, p, alpha)
	return rNew, pNew
}

// BaseGram holds the inner products among the base Krylov vectors the
// paper's equation (*) contracts against:
//
//	Mu[i]    = (r(m), A^i r(m))
//	Nu[i]    = (r(m), A^i p(m))
//	Omega[i] = (p(m), A^i p(m))
//
// Slices must extend far enough for the contraction being performed:
// index i+j(+shift) for all coefficient degrees i, j in play.
type BaseGram struct {
	Mu, Nu, Omega []float64
}

// Contract evaluates (x, A^shift y) for vectors represented by x and y
// over the base Gram sequences, using symmetry (A^a u, A^b v) = (u, A^{a+b} v):
//
//	(x, A^s y) = sum_{ij} xR_i yR_j Mu[i+j+s]
//	           + sum_{ij} (xR_i yP_j + xP_i yR_j) Nu[i+j+s]
//	           + sum_{ij} xP_i yP_j Omega[i+j+s]
//
// This is precisely the paper's equation (*) once x = y = r(n) (s=0) or
// x = y = p(n) (s=1). Contract panics if the Gram sequences are too short.
func (g BaseGram) Contract(x, y CoeffPair, shift int) float64 {
	need := x.Degree() + y.Degree() + shift
	if len(g.Mu) <= need && hasAny(x.Rho) && hasAny(y.Rho) {
		panic(fmt.Sprintf("core: Mu length %d insufficient for index %d", len(g.Mu), need))
	}
	if len(g.Omega) <= need && hasAny(x.Pi) && hasAny(y.Pi) {
		panic(fmt.Sprintf("core: Omega length %d insufficient for index %d", len(g.Omega), need))
	}
	var s float64
	for i, xi := range x.Rho {
		if xi == 0 {
			continue
		}
		for j, yj := range y.Rho {
			if yj != 0 {
				s += xi * yj * g.Mu[i+j+shift]
			}
		}
		for j, yj := range y.Pi {
			if yj != 0 {
				s += xi * yj * g.Nu[i+j+shift]
			}
		}
	}
	for i, xi := range x.Pi {
		if xi == 0 {
			continue
		}
		for j, yj := range y.Rho {
			if yj != 0 {
				s += xi * yj * g.Nu[i+j+shift]
			}
		}
		for j, yj := range y.Pi {
			if yj != 0 {
				s += xi * yj * g.Omega[i+j+shift]
			}
		}
	}
	return s
}

func hasAny(c []float64) bool {
	for _, v := range c {
		if v != 0 {
			return true
		}
	}
	return false
}

// StarCoefficients expands equation (*) symbolically for the r(n) inner
// product after k steps with the given parameter history: it returns the
// coefficient arrays (aCoef, bCoef, cCoef) such that
//
//	(r(n), r(n)) = sum_i aCoef[i] (r, A^i r)
//	             + sum_i bCoef[i] (r, A^i p)
//	             + sum_i cCoef[i] (p, A^i p)
//
// with r = r(n-k), p = p(n-k). lambdas[j] and alphas[j] are λ_{m+j} and
// a_{m+j+1} for j = 0..k-1 where m = n-k. The arrays have length 2k+1,
// realizing the paper's claim that such coefficients exist and are
// polynomials in the parameters.
func StarCoefficients(lambdas, alphas []float64) (aCoef, bCoef, cCoef []float64) {
	if len(lambdas) != len(alphas) {
		panic("core: lambdas and alphas must have equal length")
	}
	k := len(lambdas)
	r := NewCoeffR()
	p := NewCoeffP()
	for j := 0; j < k; j++ {
		r, p = StepCG(r, p, lambdas[j], alphas[j])
	}
	aCoef = make([]float64, 2*k+1)
	bCoef = make([]float64, 2*k+1)
	cCoef = make([]float64, 2*k+1)
	// (r(n), r(n)) = sum_{ij} rho_i rho_j Mu_{i+j} + 2 rho_i pi_j Nu_{i+j}
	//              + pi_i pi_j Omega_{i+j}
	for i, ri := range r.Rho {
		for j, rj := range r.Rho {
			aCoef[i+j] += ri * rj
		}
		for j, pj := range r.Pi {
			bCoef[i+j] += 2 * ri * pj
		}
	}
	for i, pi := range r.Pi {
		for j, pj := range r.Pi {
			cCoef[i+j] += pi * pj
		}
	}
	return aCoef, bCoef, cCoef
}

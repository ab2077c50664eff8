package solve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds a fresh Solver for one registered method.
type Factory func() Solver

// Caps declares what operator shapes a method accepts, so validation
// layers (CLI symmetry gates, server per-method shape checks) key off
// the registry instead of hard-coding method lists. The zero value is
// the historical contract — square symmetric positive definite only —
// which is correct for every classic method.
type Caps struct {
	// Nonsymmetric: the method does not require a symmetric (or SPD)
	// operator (bicgstab, gmres, cgnr, lsqr).
	Nonsymmetric bool
	// Rectangular: the method accepts rows != cols operators and solves
	// the least-squares problem min ||b - A x|| (cgnr, lsqr). Implies
	// the operator must provide transpose products.
	Rectangular bool
	// Sharded: every reduction the method's kernel performs goes
	// through the engine workspace, so the kernel runs unchanged on one
	// row block of an operator whose inner products are sums over all
	// the blocks — the methods a cluster fleet accepts.
	Sharded bool
}

type entry struct {
	summary string
	factory Factory
	caps    Caps
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Register adds a method to the registry under name, with a one-line
// summary for CLI help text. It panics on a duplicate or empty name —
// registration is an init-time act, and a collision is a programming
// error. External packages may register their own methods; everything
// in this repository registers itself when the solve package loads.
// Methods registered this way declare zero Caps (square SPD operators
// only); use RegisterCaps to declare broader operator support.
func Register(name, summary string, f Factory) {
	RegisterCaps(name, summary, Caps{}, f)
}

// RegisterCaps is Register with an explicit operator-capability
// declaration.
func RegisterCaps(name, summary string, caps Caps, f Factory) {
	if name == "" || f == nil {
		panic("solve: Register requires a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solve: method %q registered twice", name))
	}
	registry[name] = entry{summary: summary, factory: f, caps: caps}
}

// MethodCaps returns the operator capabilities a method was registered
// with (the zero Caps for unknown names, the conservative answer).
func MethodCaps(name string) Caps {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name].caps
}

// Methods returns the registered method names, sorted. CLIs derive
// their flag vocabulary from this so adding a solver never touches
// them.
func Methods() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Summary returns the one-line description a method was registered
// with ("" for unknown names).
func Summary(name string) string {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name].summary
}

// Usage returns the method names joined by "|" — ready-made flag usage
// text.
func Usage() string { return strings.Join(Methods(), "|") }

// Describe returns a multi-line listing of every method and its
// summary, for CLI help output.
func Describe() string {
	var b strings.Builder
	for _, name := range Methods() {
		fmt.Fprintf(&b, "  %-12s %s\n", name, Summary(name))
	}
	return b.String()
}

// New builds a fresh Solver for the named method, or an error wrapping
// ErrUnknownMethod listing what is available.
func New(name string) (Solver, error) {
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownMethod, name, Usage())
	}
	return e.factory(), nil
}

// MustNew is New panicking on error, for registrations known at
// compile time.
func MustNew(name string) Solver {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}

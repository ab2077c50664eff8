package solve_test

import (
	"encoding/json"
	"errors"
	"testing"

	"vrcg/solve"
)

func intp(v int) *int { return &v }

func TestParamsOptionsRoundTrip(t *testing.T) {
	blob := []byte(`{"tol":1e-9,"max_iter":50,"history":true,"lookahead":3,"block_size":2}`)
	var p solve.Params
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	if p.Tol != 1e-9 || p.MaxIter != 50 || !p.History {
		t.Fatalf("bad scalar decode: %+v", p)
	}
	if p.Lookahead == nil || *p.Lookahead != 3 || p.BlockSize == nil || *p.BlockSize != 2 {
		t.Fatalf("bad pointer decode: %+v", p)
	}
	if n := len(p.Options()); n != 5 {
		t.Fatalf("want 5 options, got %d", n)
	}
}

func TestParamsZeroValueIsNoOptions(t *testing.T) {
	var p solve.Params
	if opts := p.Options(); len(opts) != 0 {
		t.Fatalf("zero Params produced %d options", len(opts))
	}
	var nilp *solve.Params
	if opts := nilp.Options(); opts != nil {
		t.Fatal("nil Params should produce nil options")
	}
	if err := nilp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsLookaheadZeroIsExplicit(t *testing.T) {
	// lookahead: 0 is a valid vrcg setting, distinct from absent.
	var p solve.Params
	if err := json.Unmarshal([]byte(`{"lookahead":0}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Lookahead == nil || *p.Lookahead != 0 {
		t.Fatalf("explicit lookahead 0 lost: %+v", p.Lookahead)
	}
	if len(p.Options()) != 1 {
		t.Fatal("explicit lookahead 0 must produce an option")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []solve.Params{
		{Tol: -1},
		{MaxIter: -1},
		{Lookahead: intp(-1)},
		{BlockSize: intp(0)},
		{BatchWorkers: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, solve.ErrBadOption) {
			t.Errorf("case %d: want ErrBadOption, got %v", i, err)
		}
	}
	good := solve.Params{Tol: 1e-8, Lookahead: intp(0), BlockSize: intp(4)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsKeyCanonical(t *testing.T) {
	a := solve.Params{Tol: 1e-8, Lookahead: intp(2)}
	b := solve.Params{Lookahead: intp(2), Tol: 1e-8}
	if a.Key() != b.Key() {
		t.Fatalf("equal params produced different keys: %q vs %q", a.Key(), b.Key())
	}
	c := solve.Params{Tol: 1e-8, Lookahead: intp(3)}
	if a.Key() == c.Key() {
		t.Fatal("different params produced the same key")
	}
	var nilp *solve.Params
	if nilp.Key() != "{}" {
		t.Fatalf("nil key %q", nilp.Key())
	}
}

func TestParamsDriveASolve(t *testing.T) {
	a, b := poolFixture(t)
	var p solve.Params
	if err := json.Unmarshal([]byte(`{"tol":1e-10,"history":true}`), &p); err != nil {
		t.Fatal(err)
	}
	res, err := solve.MustNew("cg").Solve(a, b, p.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.History) == 0 {
		t.Fatalf("params did not reach the solver: converged=%v history=%d",
			res.Converged, len(res.History))
	}
}

package server

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// floatRef is scanner.float as it was before it read its own digits —
// a validating pass for the JSON grammar (numberRef and digitsRef, the
// scanner's number and digits of that time, kept here unchanged), then
// strconv over the token. It is the definition the one-pass reader is
// held to.
func (s *scanner) floatRef() (float64, bool) {
	tok, ok := s.numberRef()
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, ok && err == nil
}

func (s *scanner) digitsRef() bool {
	b, i := s.b, s.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	ok := i > s.i
	s.i = i
	return ok
}

func (s *scanner) numberRef() ([]byte, bool) {
	start := s.i
	s.eat('-')
	if !s.eat('0') && !s.digitsRef() {
		return nil, false
	}
	if s.eat('.') && !s.digitsRef() {
		return nil, false
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if !s.digitsRef() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// checkFloat runs both readers at the front of in and requires the same
// accept or decline and, on accept, the same cursor and the same bits
// (after a decline the body is declined and the cursor never read).
func checkFloat(t testing.TB, in []byte) (f float64, ok bool) {
	t.Helper()
	got, want, num := scanner{b: in}, scanner{b: in}, scanner{b: in}
	f, ok = got.float()
	wf, wok := want.floatRef()
	if ok != wok || ok && got.i != want.i {
		t.Fatalf("%q: accepted %v at %d, reference %v at %d", in, ok, got.i, wok, want.i)
	}
	// The integer fields take their tokens from the same walk.
	tok, nok := num.number()
	wtok, wnok := (&scanner{b: in}).numberRef()
	if nok != wnok || !bytes.Equal(tok, wtok) {
		t.Fatalf("%q: number() %q %v, reference %q %v", in, tok, nok, wtok, wnok)
	}
	if ok && math.Float64bits(f) != math.Float64bits(wf) {
		t.Fatalf("%q: %x (%v), reference %x (%v)", in, math.Float64bits(f), f, math.Float64bits(wf), wf)
	}
	return f, ok
}

// fastTiers reports whether tok is answered without strconv — the
// count the product does not keep.
func fastTiers(tok []byte) bool {
	s := scanner{b: tok}
	man, exp10, neg, exact, tok := s.decimal()
	_, fast := fastFloat(man, exp10, neg)
	return tok != nil && exact && fast
}

// floatCases are the literals that break hand-rolled parsers. decline:
// no number at the front is accepted. slow: accepted, but only by
// strconv.
var floatCases = []struct {
	in            string
	decline, slow bool
}{
	{in: "0"}, {in: "-0"}, {in: "0.0e5"}, {in: "-0.0"}, {in: "0e999"}, {in: "-0e-999"},
	{in: "1"}, {in: "-1"}, {in: "10"}, {in: "1.5"}, {in: "1E2"}, {in: "1e+2"}, {in: "1e-2"}, {in: "123456789.125e-3"},
	// Not numbers. "01" is "0" and then a byte no caller accepts.
	{in: "01"}, {in: "-01"}, {in: "1.", decline: true}, {in: ".5", decline: true}, {in: "+1", decline: true},
	{in: "1e", decline: true}, {in: "1e+", decline: true}, {in: "1e-", decline: true}, {in: "-", decline: true},
	{in: "-.5", decline: true}, {in: "", decline: true}, {in: "e5", decline: true}, {in: "1.e5", decline: true},
	{in: "NaN", decline: true}, {in: "Infinity", decline: true}, {in: "-Infinity", decline: true},
	{in: "0x10"}, {in: "1_0"}, {in: "1.5.5"}, {in: "1e5e5"}, {in: "1e5.5"},
	// 2^53 and its neighbours; the first integer float64 cannot hold.
	{in: "9007199254740991"}, {in: "9007199254740992"}, {in: "9007199254740993", slow: true},
	{in: "9007199254740993.0", slow: true}, {in: "9007199254740994"}, {in: "9007199254740995"},
	{in: "-9007199254740993", slow: true}, {in: "9007199254740992.5", slow: true}, {in: "9007199254740993.00000001", slow: true},
	// The last exact power of ten and the first inexact one.
	{in: "1e22"}, {in: "1e23", slow: true}, {in: "8.41e21"}, {in: "9007199254740991e22"}, {in: "1e-22"}, {in: "1e-23"},
	{in: "123456789012345678e-22"},
	// Halfway and near-halfway between adjacent float64 values.
	{in: "1.00000000000000011102230246251565404236316680908203125", slow: true},
	{in: "1.00000000000000011102230246251565404236316680908203124", slow: true},
	{in: "1.00000000000000011102230246251565404236316680908203126", slow: true},
	{in: "1.0000000000000001110", slow: true}, {in: "1.0000000000000003330", slow: true},
	{in: "4503599627370496.5", slow: true}, {in: "4503599627370497.5", slow: true}, {in: "4503599627370497.4"},
	{in: "0.500000000000000166533453693773481063544750213623046875", slow: true},
	{in: "6929495644600919.5", slow: true}, {in: "6929495644600920.5", slow: true}, {in: "3.0000000000000004"},
	// The subnormal boundary.
	{in: "2.2250738585072014e-308"}, {in: "2.2250738585072011e-308", slow: true}, {in: "2.2250738585072009e-308", slow: true},
	{in: "4.9e-324", slow: true}, {in: "5e-324", slow: true}, {in: "2.4703282292062327e-324", slow: true},
	{in: "2.4703282292062328e-324", slow: true}, {in: "1e-323", slow: true},
	// The largest float64, and the first literal that rounds past it.
	{in: "1.7976931348623157e308"}, {in: "1.7976931348623158e308"}, {in: "1.7976931348623159e308", decline: true},
	{in: "-1.7976931348623159e308", decline: true}, {in: "1e308"}, {in: "1e309", decline: true},
	{in: "1e999", decline: true}, {in: "-1e999", decline: true}, {in: "1e-400", slow: true}, {in: "-1e-400", slow: true},
	// Both ends of the power-of-ten table, and one past each.
	{in: "1e-348", slow: true}, {in: "1e-349", slow: true}, {in: "1e347", decline: true}, {in: "1e348", decline: true},
	{in: "9999999999999999999e-348", slow: true}, {in: "9999999999999999999e-327", slow: true}, {in: "1e-308", slow: true},
	// More digits than a uint64 holds; leading zeros that are not digits.
	{in: "1234567890123456789"}, {in: "9999999999999999999"}, {in: "18446744073709551616", slow: true},
	{in: "12345678901234567890", slow: true}, {in: "1234567890123456789012345678901234567890", slow: true},
	{in: "0.1234567890123456789"}, {in: "0.12345678901234567890", slow: true},
	{in: "0.000000000000000000000000000000123"}, {in: "0.0000000000000000000000000000001234567890123456789"},
	{in: "0.00000000000000000000000000000012345678901234567890", slow: true},
	{in: "0.000000000000000000000000000000"}, {in: "-0.000000000000000000000000000000e5"},
	{in: "100000000000000000000000000000", slow: true}, {in: "0.00000000000000000000"},
	// Exponents longer than any int.
	{in: "1e0000000000000000000000001"}, {in: "1e1234567890123456789012345", decline: true},
	{in: "1e-1234567890123456789012345", slow: true}, {in: "0e1234567890123456789012345"},
	{in: "0.0000000000000000000000001e1234567890123456789012345", decline: true},
	// Fraction lengths around the eight-byte loads.
	{in: "0.1234567"}, {in: "0.12345678"}, {in: "0.123456789"}, {in: "0.1234567812345678"}, {in: "0.12345678123456781"},
	{in: "0.1234567e1"}, {in: "0.12345678e1"}, {in: "0.1234567/"}, {in: "0.1234567:"}, {in: "0.12345678:"},
}

// Every case, bare and in front of each byte that can follow a number
// in a body, agrees with the reference; the cases marked slow — and no
// others — reach strconv, so the fallback is exercised.
func TestFloatScanCases(t *testing.T) {
	slow := 0
	for _, c := range floatCases {
		for _, tail := range []string{",1", "]", " ", "}", "e", ".", "-", "00000000"} {
			checkFloat(t, []byte(c.in+tail))
		}
		_, ok := checkFloat(t, []byte(c.in))
		if ok == c.decline {
			t.Errorf("%q: accepted %v, want %v", c.in, ok, !c.decline)
		}
		if fast := fastTiers([]byte(c.in)); ok && fast == c.slow {
			t.Errorf("%q: answered by the fast tiers %v, want %v", c.in, fast, !c.slow)
		}
		if ok && c.slow {
			slow++
		}
	}
	if slow == 0 {
		t.Error("no case reached the strconv fallback")
	}
}

// A float64 printed the two ways clients print them — shortest
// round-trip, and 17 significant digits — reads back to its bits, over
// a million random bit patterns.
func TestFloatScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for n := 0; n < 1_000_000; n++ {
		u := rng.Uint64()
		f := math.Float64frombits(u)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, format := range []byte{'g', 'e'} {
			prec := -1
			if format == 'e' {
				prec = 16
			}
			buf = strconv.AppendFloat(buf[:0], f, format, prec, 64)
			s := scanner{b: buf}
			got, ok := s.float()
			if !ok || s.i != len(buf) || math.Float64bits(got) != u {
				t.Fatalf("%s: read %x (%v, %d bytes), printed from %x", buf, math.Float64bits(got), ok, s.i, u)
			}
		}
	}
}

// The repository's own step body is answered by the fast tiers: fewer
// than one token in a thousand goes to strconv.
func TestFloatScanStepBodyStaysFast(t *testing.T) {
	body, _, _ := ICPStepBody(5000, 1)
	tokens, slow := 0, 0
	for _, tok := range bytes.FieldsFunc(body, func(r rune) bool { return r != '-' && r != '+' && r != '.' && r != 'e' && (r < '0' || r > '9') }) {
		checkFloat(t, tok)
		tokens++
		if !fastTiers(tok) {
			slow++
		}
	}
	if tokens != 35000 || slow*1000 >= tokens {
		t.Fatalf("%d of %d tokens reached strconv, want < 0.1%% of 35000", slow, tokens)
	}
}

// The table is derived at run time, so four of its rows are pinned to
// the values strconv's own table has for them, every row is re-derived
// another way — as a big.Float rounded toward zero at 128 bits, not as
// integer shifts and a quotient — and both ends decline.
func TestPow10Table(t *testing.T) {
	pow10Once.Do(buildPow10Tab)
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
	} {
		if got := pow10Tab[c.q-pow10Min]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: {%#016x, %#016x}, want {%#016x, %#016x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
	for q := pow10Min; q <= pow10Max; q++ {
		// 10^|q| exactly, then one correctly rounded (toward zero) divide
		// or copy into 128 bits.
		p := new(big.Float).SetPrec(2048).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil))
		z := new(big.Float).SetPrec(128).SetMode(big.ToZero)
		if q < 0 {
			z.Quo(big.NewFloat(1), p)
		} else {
			z.Set(p)
		}
		mant := new(big.Float)
		z.MantExp(mant) // in [0.5, 1)
		m, _ := mant.SetMantExp(mant, 128).Int(nil)
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := m.Rsh(m, 64).Uint64()
		if got := pow10Tab[q-pow10Min]; got != [2]uint64{lo, hi} {
			t.Fatalf("1e%d: {%#016x, %#016x}, re-derived {%#016x, %#016x}", q, got[0], got[1], lo, hi)
		}
	}
	for _, q := range []int{pow10Min - 1, pow10Max + 1, math.MinInt, math.MaxInt} {
		if _, ok := fastFloat(1, q, false); ok {
			t.Errorf("1e%d answered from outside the table", q)
		}
	}
	// The end rows exist but no uint64 mantissa reaches a normal float64
	// from them: strconv answers (0, and out of range).
	for _, tok := range []string{"1e-348", "9999999999999999999e-348", "1e347"} {
		if fastTiers([]byte(tok)) {
			t.Errorf("%s answered by the fast tiers", tok)
		}
		checkFloat(t, []byte(tok))
	}
}

// FuzzFloatScan holds the one-pass float to the reference on arbitrary
// bytes: accept or decline, bytes consumed, bits.
func FuzzFloatScan(f *testing.F) {
	for _, c := range floatCases {
		f.Add([]byte(c.in))
	}
	f.Add([]byte("-0.8372615234234234,"))
	f.Add([]byte("1.2345678901234567e-05]"))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkFloat(t, in)
		// The same bytes as a fraction and as an exponent, where most of
		// the grammar is.
		checkFloat(t, append([]byte("0."), in...))
		checkFloat(t, append([]byte("1e"), in...))
	})
}

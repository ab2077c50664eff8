package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// This file reads one JSON number as a float64 in one pass over its
// bytes: digits into a uint64 and a decimal exponent, then (1) exact
// (Clinger) — a mantissa below 2^53 and |exponent| ≤ 22 are float64
// values, one IEEE multiply or divide rounds once; else (2) Eisel–Lemire
// — the mantissa times a 128-bit truncated power of ten, declining when
// the truncation could decide the rounding; else (3) strconv.ParseFloat
// over the token: more than 19 significant digits, a half-way case, a
// subnormal, an exponent outside 1e-348…1e347, overflow. 1 and 2 are
// correctly rounded whenever they answer, so they can only give the bits
// of ParseFloat, which stays the definition.

// float consumes a number as a float64. An out-of-range token (1e999)
// is an error to encoding/json, so it declines; underflow (1e-400) is
// not, and yields strconv's zero.
func (s *scanner) float() (float64, bool) {
	man, exp10, neg, exact, tok := s.decimal()
	if exact {
		if f, ok := fastFloat(man, exp10, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64) // no token, no float
	return f, err == nil
}

// decimal consumes one token of the JSON number grammar (see number),
// reading its digits as it checks them: the token is
// (-1)^neg · man · 10^exp10 when exact, which says that man holds every
// significant digit — there were at most the 19 a uint64 always has
// room for. A nil token declines.
func (s *scanner) decimal() (man uint64, exp10 int, neg, exact bool, tok []byte) {
	b, i := s.b, s.i
	if neg = i < len(b) && b[i] == '-'; neg {
		i++
	}
	// Every digit goes into man, which wraps past 19 of them; the count
	// taken afterwards says whether it could have.
	first := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
	}
	digits := i - first
	if digits == 0 {
		return 0, 0, false, false, nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i+8 <= len(b); i += 8 {
			v, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
			if !ok {
				break
			}
			man = man*1e8 + v
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, 0, false, false, nil
		}
		exp10 = frac - i
		digits += i - frac
	}
	// Leading zeros (0.000…) are not significant and did not move man.
	for k := first; digits > 19 && k < i && (b[k] == '0' || b[k] == '.'); k++ {
		if b[k] == '0' {
			digits--
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		e, edigits := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1e6 { // past any float64 either way, and any length is grammar
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == edigits {
			return 0, 0, false, false, nil
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	tok = b[s.i:i]
	s.i = i
	return man, exp10, neg, digits <= 19, tok
}

// eightDigits reports whether the eight bytes of v, loaded little
// endian, are all ASCII digits, and if so their value as a decimal
// number, first byte most significant.
func eightDigits(v uint64) (uint64, bool) {
	const hi = 0xF0F0F0F0F0F0F0F0
	if (v&hi)|((v+0x0606060606060606)&hi)>>4 != 0x3333333333333333 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // bytes 1, 3, 5, 7 now hold the pairs, 0…99
	const mask = 0x000000FF000000FF
	v = ((v&mask)*(100+1000000<<32) + ((v>>16)&mask)*(1+10000<<32)) >> 32
	return v, true
}

// pow10 are the powers of ten a float64 holds exactly: 5^22 < 2^53.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// The Eisel–Lemire table: row q-pow10Min is floor(10^q · 2^k), k such
// that bit 127 is set, as {low, high} words. It is derived, not pasted:
// all 696 rows in about a millisecond, on the first number that needs one.
const pow10Min, pow10Max = -348, 347

var (
	pow10Once sync.Once
	pow10Tab  [pow10Max - pow10Min + 1][2]uint64
)

func buildPow10Tab() {
	ten := big.NewInt(10)
	for q := pow10Min; q <= pow10Max; q++ {
		z := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		if q < 0 { // 2^k / 10^-q, with 128 bits and more of quotient
			z.Quo(new(big.Int).Lsh(big.NewInt(1), uint(z.BitLen()+128)), z)
		} else {
			z.Lsh(z, 128)
		}
		var b [16]byte
		z.Rsh(z, uint(z.BitLen()-128)).FillBytes(b[:])
		pow10Tab[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
}

// fastFloat is tiers 1 and 2: (-1)^neg · man · 10^exp10 correctly
// rounded, or ok false. Tier 2 is strconv's eiselLemire64 step for step
// (Eisel and Lemire 2020; Nigel Tao's "The Eisel-Lemire ParseNumberF64
// Algorithm" names the steps).
func fastFloat(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		exp10 = 0 // ±0 whatever the exponent
	}
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		if f = float64(man); neg {
			f = -f
		}
		if exp10 < 0 {
			return f / pow10[-exp10], true
		}
		return f * pow10[exp10], true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow10Once.Do(buildPow10Tab)
	pow := &pow10Tab[exp10-pow10Min]
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	// Multiplication, and the wider approximation when the low bits
	// could carry into the rounding.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yhi, ylo := bits.Mul64(man, pow[0])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	// Shift to 54 bits; a half-way case is not ours to break.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	// Round to 53. An exponent of zero or wrapped below it is a
	// subnormal, 0x7FF or above an overflow.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	u := exp2<<52 | mant&(1<<52-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u), true
}

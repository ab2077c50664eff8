package server

import (
	"bytes"
	"strconv"

	"vrcg/solve"
)

// This file is the fast path of the three hot JSON request bodies
// (solve, batch, sequence step): one pass over the bytes, numbers
// parsed straight into the pooled request scratch. A 5000x6 ICP step
// ships 35,000 floats in ~690 KB; encoding/json spends ~10 ms and
// 3.4 MB of garbage reflecting them into fresh slices, this ~1.4 ms and
// nothing proportional to the payload.
//
// The scanner can only accept. encoding/json stays the specification
// of the request grammar and the author of every error message; the
// scanner takes a strict subset of what it takes — one object, keys
// byte for byte the lowercase field tags and each at most once,
// escape-free ASCII strings, JSON-grammar numbers read to the bits
// strconv gives them (the call encoding/json makes; floatscan.go reads
// a float in one pass — exact, else Eisel–Lemire, else strconv itself
// over the token), null, number arrays — and decodes that subset to the
// identical value. Anything else it declines, without saying why, and
// decodeRequest runs encoding/json over the same bytes. Nothing selects
// between the two but the bytes themselves.

// scanner is a cursor over one request body. Its methods consume what
// they accept and report false to decline the body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string and returns a view of its contents. Escapes,
// control bytes and non-ASCII bytes — where encoding/json unescapes,
// refuses, or repairs invalid UTF-8 — decline.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv alone would
// also take 01, 1., .5, +1, 0x10, 1_0, NaN and Infinity; decimal's walk
// (floatscan.go) is what keeps them out. The token ends at the first
// byte that cannot continue it and every caller then requires a
// separator, so "01" declines as "0" followed by '1'.
func (s *scanner) number() ([]byte, bool) {
	_, _, _, _, tok := s.decimal()
	return tok, tok != nil
}

// array consumes [elem, ...].
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	s.ws()
	if s.eat(']') {
		return true
	}
	for {
		s.ws()
		if !elem() {
			return false
		}
		s.ws()
		if !s.eat(',') {
			return s.eat(']')
		}
	}
}

// floats decodes [f, ...] into *scratch's storage, leaves the (possibly
// grown) storage there for the next request, and points *dst at the
// result: [] makes it empty but not nil, which an absent or null field
// stays — the difference between a zero-length update and none.
func (s *scanner) floats(dst, scratch *[]float64) bool {
	out := (*scratch)[:0]
	if out == nil {
		out = []float64{}
	}
	ok := s.array(func() bool {
		f, ok := s.float()
		out = append(out, f)
		return ok
	})
	*scratch, *dst = out, out
	return ok
}

// columns decodes [[f, ...], ...] into the scratch's reused columns. A
// null column declines: encoding/json would leave that element nil.
func (s *scanner) columns(dst *[][]float64, st *reqScratch) bool {
	cols, n := st.rhs[:cap(st.rhs)], 0
	if cols == nil {
		cols = [][]float64{}
	}
	ok := s.array(func() bool {
		if n == len(cols) {
			cols = append(cols, nil)
		}
		n++
		return s.floats(&cols[n-1], &cols[n-1])
	})
	st.rhs = cols[:n]
	*dst = st.rhs
	return ok
}

// field binds one key of a request object to where its value goes:
// dst is a *string, *int, **float64, *[]float64 (decoded into scratch's
// storage), *[][]float64 or **solve.Params.
type field struct {
	key     string
	dst     any
	scratch *[]float64
}

// object consumes the request object. A key that is not byte for byte
// one of fields declines, and so does a repeated one: encoding/json
// lets the last win, but decodes it into what the first left behind.
// null is consumed and the field left alone — encoding/json leaves
// slices and pointers nil and ignores it for strings and numbers, which
// with no repeats is where every field still is. Bytes after the
// closing brace are not looked at, as Decoder.Decode does not look.
func (s *scanner) object(st *reqScratch, fields ...field) bool {
	s.ws()
	if !s.eat('{') {
		return false
	}
	s.ws()
	if s.eat('}') {
		return true
	}
	seen := 0
	for {
		s.ws()
		key, ok := s.str()
		k := 0
		for k < len(fields) && fields[k].key != string(key) {
			k++
		}
		if !ok || k == len(fields) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		s.ws()
		if !s.eat(':') {
			return false
		}
		s.ws()
		if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
			s.i += len("null")
		} else {
			ok = s.value(st, fields[k])
		}
		s.ws()
		if !ok || !s.eat(',') {
			return ok && s.eat('}')
		}
	}
}

// value decodes one non-null field value.
func (s *scanner) value(st *reqScratch, f field) bool {
	switch dst := f.dst.(type) {
	case *string:
		v, ok := s.str()
		*dst = string(v)
		return ok
	case *int:
		// encoding/json's test: ParseInt at the field's size, so 1.0
		// and 1e3 are errors there and decline here.
		tok, ok := s.number()
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		*dst = int(n)
		return ok && err == nil
	case **float64:
		v, ok := s.float()
		*dst = &v
		return ok
	case *[]float64:
		return s.floats(dst, f.scratch)
	case *[][]float64:
		return s.columns(dst, st)
	case **solve.Params:
		// The sub-object goes to encoding/json itself, under the
		// request decoder's DisallowUnknownFields: the same decoder
		// over the same bytes, so the same Params or the same refusal.
		p, n, err := decodeParams(s.b[s.i:])
		*dst = p
		s.i += n
		return err == nil
	}
	return false
}

// The three request decoders. A declined body may leave *req partly
// written; decodeRequest clears it.

func scanSolveRequest(body []byte, st *reqScratch, req *SolveRequest) bool {
	s := scanner{b: body}
	return s.object(st,
		field{key: "operator", dst: &req.Operator},
		field{key: "method", dst: &req.Method},
		field{key: "rhs", dst: &req.RHS, scratch: st.column0()},
		field{key: "params", dst: &req.Params},
		field{key: "precond", dst: &req.Precond},
		field{key: "timeout_ms", dst: &req.TimeoutMS})
}

func scanBatchRequest(body []byte, st *reqScratch, req *BatchRequest) bool {
	s := scanner{b: body}
	return s.object(st,
		field{key: "operator", dst: &req.Operator},
		field{key: "method", dst: &req.Method},
		field{key: "rhs", dst: &req.RHS},
		field{key: "params", dst: &req.Params},
		field{key: "precond", dst: &req.Precond},
		field{key: "timeout_ms", dst: &req.TimeoutMS})
}

func scanStepRequest(body []byte, st *reqScratch, req *SequenceStepRequest) bool {
	s := scanner{b: body}
	return s.object(st,
		field{key: "rhs", dst: &req.RHS, scratch: st.column0()},
		field{key: "rescale", dst: &req.Rescale},
		field{key: "vals", dst: &req.Vals, scratch: &st.vals},
		field{key: "timeout_ms", dst: &req.TimeoutMS})
}

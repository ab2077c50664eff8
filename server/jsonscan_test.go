package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"vrcg/solve"
)

// ICPStepBody renders the judged benchmark's serve-icp step body — rows
// residuals and a rows x 6 Jacobian, {"rhs":[…],"vals":[…]} with
// strconv 'g' floats and no whitespace — for the tests and benchmarks
// of both test packages.
func ICPStepBody(rows int, seed int64) (body []byte, rhs, vals []float64) {
	rng := rand.New(rand.NewSource(seed))
	floats := func(dst []byte, key string, v []float64) []byte {
		dst = append(append(append(dst, '"'), key...), `":[`...)
		for i := range v {
			v[i] = rng.NormFloat64()
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v[i], 'g', -1, 64)
		}
		return append(dst, ']')
	}
	rhs, vals = make([]float64, rows), make([]float64, 6*rows)
	body = floats([]byte{'{'}, "rhs", rhs)
	body = floats(append(body, ','), "vals", vals)
	return append(body, '}'), rhs, vals
}

// warmScratch is a scratch as a previous request left it: capacity
// everywhere, and values that must not show up in the next decode.
func warmScratch() *reqScratch {
	junk := func() []float64 { return []float64{7, 7, 7, 7, 7, 7, 7, 7}[:5] }
	return &reqScratch{rhs: [][]float64{junk(), junk(), junk()}[:2], vals: junk()}
}

// sameValue is reflect.DeepEqual (so nil and empty slices differ) with
// floats compared by their bits (so -0 and 0 differ too).
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// checkBody is the differential check on one body for one request
// type, against what the parent's decodeBody makes of the same bytes:
// whenever the scanner accepts, encoding/json accepts and the two
// values are the same, down to float bits and nil-versus-empty, from a
// fresh scratch and from a used one; and decodeRequest — accept or
// decline — answers, succeeds and decodes exactly as decodeBody does.
// It reports whether the scanner took the body.
func checkBody[T any](t *testing.T, srv *Server, body []byte, scan func([]byte, *reqScratch, *T) bool) bool {
	t.Helper()
	var want T
	wantRec := httptest.NewRecorder()
	wantOK := decodeBody(wantRec, bytes.NewReader(body), &want)
	same := func(got T) {
		t.Helper()
		if !reflect.DeepEqual(got, want) || !sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%T %q:\n scanner %+v\n encoding/json %+v", got, body, got, want)
		}
	}

	var accepted [2]bool
	for i, st := range []*reqScratch{new(reqScratch), warmScratch()} {
		var got T
		accepted[i] = scan(body, st, &got)
		switch {
		case accepted[i] && !wantOK:
			t.Fatalf("%T %q: scanner accepted what encoding/json rejects: %s", got, body, wantRec.Body)
		case accepted[i]:
			same(got)
		}
	}
	if accepted[0] != accepted[1] {
		t.Fatalf("%T %q: accepted from a fresh scratch %v, from a used one %v", want, body, accepted[0], accepted[1])
	}

	var got T
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	ok := decodeRequest(srv, rec, req, warmScratch(), &got, scan)
	if ok != wantOK {
		t.Fatalf("%T %q: decodeRequest ok=%v, decodeBody ok=%v", got, body, ok, wantOK)
	}
	if ok {
		same(got)
	} else if rec.Code != wantRec.Code || rec.Body.String() != wantRec.Body.String() {
		t.Fatalf("%T %q: answered %d %s, decodeBody answers %d %s", got, body, rec.Code, rec.Body, wantRec.Code, wantRec.Body)
	}
	return accepted[0]
}

// checkAllTypes runs checkBody for the three request types and returns
// how many of them the scanner took the body for.
func checkAllTypes(t *testing.T, srv *Server, body []byte) int {
	t.Helper()
	n := 0
	for _, scanned := range []bool{
		checkBody(t, srv, body, scanSolveRequest),
		checkBody(t, srv, body, scanBatchRequest),
		checkBody(t, srv, body, scanStepRequest),
	} {
		if scanned {
			n++
		}
	}
	return n
}

// scannedSeeds are bodies the scanner must take for at least one
// request type: what the repository's own clients, docs and CI send,
// and the edges of the subset. declinedSeeds it must leave to
// encoding/json for all three.
var scannedSeeds = []string{
	// The benchmark's shape, examples/icp's json.Marshal, docs/api.md.
	`{"rhs":[0.5,-1.25e-05,3e+06],"vals":[1,2,3,4,5,6]}`,
	`{"rhs":[1,1]}`,
	`{"rhs":[1.01,1.01]}`,
	`{"rhs": [1, 1], "rescale": 1.5, "vals": [2,-1,-1,2], "timeout_ms": 2000}`,
	`{"operator":"tiny","method":"cg","rhs":[1,1],"params":{"tol":1e-12}}`,
	`{"operator":"tiny","method":"pipecg","rhs":[[1,1],[2,0],[0,3]]}`,
	`{"operator":"poisson2d","method":"cg","rhs":[1,1,1,1],"params":{"tol":1e-10}}`,
	`{"operator":"p","method":"pcg","rhs":[1],"params":{"tol":1e-10,"max_iter":500,"history":true,"lookahead":3,"block_size":4,"restart":30},"precond":"jacobi","timeout_ms":2000}`,
	// Whitespace, key order, empty and null values.
	" \t\r\n{ \"vals\" : [ 1 , 2 ] ,\n\"rhs\" : [ 3 ]\n}\n",
	`{}`,
	`{"rhs":[]}`,
	`{"rhs":[],"vals":[]}`,
	`{"rhs":[1],"vals":null,"rescale":null,"timeout_ms":null}`,
	`{"operator":null,"method":null,"rhs":null,"params":null,"precond":null}`,
	`{"rhs":[[]]}`,
	`{"rhs":[[],[1]]}`,
	`{"operator":"","method":"","rhs":[1],"params":{}}`,
	// Inside params encoding/json itself decodes: escapes, case, repeats.
	`{"rhs":[1],"params":{"t\u006fl":1,"TOL":2, "max_iter":3,"max_iter":4}}`,
	// DEL and punctuation are plain ASCII to JSON.
	"{\"operator\":\"a b\x7f~!\",\"rhs\":[1]}",
	// Numbers: every shape of the grammar, strconv's bits.
	`{"rhs":[-0,0,-0.0,1E5,1e5,1e+5,1E-5,1e-400,-1e-400,0e0,0.1,123456789012345678901234567890]}`,
	`{"rhs":[4.9e-324,2.2250738585072011e-308,1.7976931348623157e308,0.30000000000000004]}`,
	`{"rhs":[1],"timeout_ms":-0}`,
	`{"rhs":[1],"timeout_ms":9223372036854775807}`,
	`{"rhs":[1],"rescale":-0}`,
	// Trailing bytes are not looked at.
	`{"rhs":[1]}garbage`,
	`{"rhs":[1]}{"rhs":[2]}`,
	`{"rhs":[1]} ]`,
}

var declinedSeeds = []string{
	// Not an object, or not all there.
	``, ` `, `null`, `[]`, `1`, `"rhs"`, `true`, `nul`, `{`, `{"rhs"`, `{"rhs":`, `{"rhs":[`, `{"rhs":[1`, `{"rhs":[1,`, `{"rhs":[1]`, `{"rhs":[1],`,
	`{"operator":"tin`, `{"rhs":[1],"params":{"tol":1`, "\xef\xbb\xbf{\"rhs\":[1]}",
	// Keys: case, escapes, duplicates, unknown.
	`{"RHS":[1]}`, `{"Rhs":[1],"vals":[2]}`, `{"\u0072hs":[1]}`, `{"rhs":[1],"rhs":[2]}`, `{"rhs":null,"rhs":[2]}`,
	`{"rhs":[1],"bogus":1}`, `{"rhs":[1],"":1}`, `{"rhs":[1],"x":null}`, `{"rhs ":[1]}`, `{rhs:[1]}`, `{'rhs':[1]}`,
	`{"operator":"a","method":"b","rhs":[1],"params":{},"precond":"c","timeout_ms":1,"vals":[1],"rescale":1}`,
	// Strings: escapes, control and non-ASCII bytes.
	`{"operator":"t\u0069ny","rhs":[1]}`, `{"operator":"a\\b","rhs":[1]}`, `{"operator":"a\"b","rhs":[1]}`,
	"{\"operator\":\"ti\xc3\xb1y\",\"rhs\":[1]}", "{\"operator\":\"a\xffb\",\"rhs\":[1]}", "{\"operator\":\"a\nb\",\"rhs\":[1]}", "{\"operator\":\"a\x00b\"}",
	// Numbers outside the JSON grammar (strconv alone would take them) or out of range.
	`{"rhs":[01]}`, `{"rhs":[1.]}`, `{"rhs":[.5]}`, `{"rhs":[+1]}`, `{"rhs":[NaN]}`, `{"rhs":[Infinity]}`, `{"rhs":[-Infinity]}`, `{"rhs":[inf]}`,
	`{"rhs":[0x10]}`, `{"rhs":[0x1p-2]}`, `{"rhs":[1_0]}`, `{"rhs":[1e]}`, `{"rhs":[1e+]}`, `{"rhs":[-]}`, `{"rhs":[--1]}`, `{"rhs":[1e999]}`, `{"rhs":[-1e999]}`,
	`{"rhs":[1],"timeout_ms":1.0}`, `{"rhs":[1],"timeout_ms":1e3}`, `{"rhs":[1],"timeout_ms":9223372036854775808}`, `{"rhs":[1],"timeout_ms":01}`,
	`{"rhs":[1],"rescale":1e999}`, `{"rhs":[1],"rescale":"2"}`, `{"rhs":[1],"rescale":[2]}`,
	// Wrong-typed values, bad separators.
	`{"rhs":"x"}`, `{"rhs":1}`, `{"rhs":{}}`, `{"rhs":[null]}`, `{"rhs":[1,null]}`, `{"rhs":[true]}`, `{"rhs":["1"]}`, `{"rhs":[[1],null]}`, `{"rhs":[[1],2]}`,
	`{"rhs":[[[1]]]}`, `{"rhs":[1,]}`, `{"rhs":[,1]}`, `{"rhs":[1 2]}`, `{"rhs":[1],}`, `{"rhs":[1];"vals":[2]}`, `{"rhs"[1]}`, `{"rhs":[1]"vals":[2]}`,
	`{"operator":1,"rhs":[1]}`, `{"operator":["a"],"rhs":[1]}`, `{"method":true}`, `{"rhs":nullx}`, `{"rhs":[1],"vals":nul}`,
	// params: what encoding/json refuses, and what only it may judge.
	`{"rhs":[1],"params":{"bogus":1}}`, `{"rhs":[1],"params":{"tol":"x"}}`, `{"rhs":[1],"params":{"tol":{"a":1}}}`, `{"rhs":[1],"params":{"tol":[1]}}`,
	`{"rhs":[1],"params":[]}`, `{"rhs":[1],"params":1}`, `{"rhs":[1],"params":{"tol":1,}}`, `{"rhs":[1],"params":{"tol":01}}`,
	`{"rhs":[1],"params":{"max_iter":1.5}}`, `{"rhs":[1],"params":{"tol":1`,
}

// TestScannerMatchesEncodingJSON runs the differential check over the
// seed lists, and pins which side of the accept line each seed is on.
func TestScannerMatchesEncodingJSON(t *testing.T) {
	srv := New(Config{})
	for _, body := range scannedSeeds {
		if checkAllTypes(t, srv, []byte(body)) == 0 {
			t.Errorf("%q: inside the scanner's subset, but no request type took it", body)
		}
	}
	for _, body := range declinedSeeds {
		if n := checkAllTypes(t, srv, []byte(body)); n != 0 {
			t.Errorf("%q: outside the scanner's subset, but %d request types took it", body, n)
		}
	}
}

// TestScannerTakesEveryMarshaledRequest: whatever json.Marshal makes of
// the three request structs — every field set, and none — is scanned.
func TestScannerTakesEveryMarshaledRequest(t *testing.T) {
	srv := New(Config{})
	k, on, f := 3, true, -2.5
	params := &solve.Params{Tol: 1e-10, MaxIter: 500, History: true, Lookahead: &k, ReanchorEvery: &k, WindowOnlyReanchor: true,
		ValidateEvery: 2, ResidualReplaceEvery: 3, BlockSize: &k, Restart: &k, Blocking: true, SpectralScaling: &on, BatchWorkers: 2}
	vec := []float64{0, -0.0, 1e-7, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	mustScan := func(v any, scanned func(body []byte) bool) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !scanned(body) {
			t.Errorf("json.Marshal(%T) = %s was left to encoding/json", v, body)
		}
	}
	solveBody := func(b []byte) bool { return checkBody(t, srv, b, scanSolveRequest) }
	batchBody := func(b []byte) bool { return checkBody(t, srv, b, scanBatchRequest) }
	stepBody := func(b []byte) bool { return checkBody(t, srv, b, scanStepRequest) }
	mustScan(SolveRequest{}, solveBody)
	mustScan(SolveRequest{Operator: "icp-jacobian", Method: "lsqr", RHS: vec, Params: params, Precond: "ic0", TimeoutMS: 2000}, solveBody)
	mustScan(BatchRequest{}, batchBody)
	mustScan(BatchRequest{Operator: "op-1", Method: "cg", RHS: [][]float64{vec, {}, vec}, Params: params, Precond: "jacobi", TimeoutMS: 1}, batchBody)
	mustScan(SequenceStepRequest{}, stepBody)
	mustScan(SequenceStepRequest{RHS: vec, Rescale: &f, Vals: vec, TimeoutMS: 30000}, stepBody)
	icp, _, _ := ICPStepBody(50, 1)
	if !stepBody(icp) {
		t.Error("the benchmark's step body was left to encoding/json")
	}
}

// FuzzJSONRequestDecode: arbitrary bytes against the three request
// types, the differential check of checkBody on each.
func FuzzJSONRequestDecode(f *testing.F) {
	for _, seeds := range [][]string{scannedSeeds, declinedSeeds} {
		for _, body := range seeds {
			f.Add([]byte(body))
		}
	}
	icp, _, _ := ICPStepBody(8, 1)
	f.Add(icp)
	srv := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAllTypes(t, srv, body)
	})
}

// BenchmarkDecodeStepJSON: decoding the benchmark's 5000x6 step body
// (~697 KB, 35,000 floats) with the scanner into a warm scratch, and
// with the reference decoder it stands in for.
func BenchmarkDecodeStepJSON(b *testing.B) {
	body, _, _ := ICPStepBody(5000, 1)
	b.Run("scanner", func(b *testing.B) {
		st := new(reqScratch)
		var req SequenceStepRequest
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !scanStepRequest(body, st, &req) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SequenceStepRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

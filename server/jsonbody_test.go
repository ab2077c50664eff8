package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// The handler-level half of the JSON body tests (the decoder-level half
// and the fuzz target are in jsonscan_test.go): the hot routes answer
// every body — inside the scanner's subset or outside it — with the
// status and the exact bytes they answered before there was a scanner.
// Nothing here depends on which decoder ran, so the same table passes
// against the parent commit; that run is where the strings come from.

// tinyServer holds the docs' 2x2 "tiny" operator and a 3x2 rectangular
// "tall" one.
func tinyServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Preload("tiny", sparse.NewCSR(2, []int{0, 2, 4}, []int{0, 1, 0, 1}, []float64{2, -1, -1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preload("tall", sparse.RectFromDense(3, 2, []float64{1, 2, 3, 4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	return srv
}

// icpJacobian is the judged benchmark's operator: a full rows x 6
// Jacobian over a private copy of vals, every entry stored, so a step
// may replace all of them.
func icpJacobian(vals []float64) *sparse.Rect {
	rows := len(vals) / 6
	rowPtr, colIdx := make([]int, rows+1), make([]int, 6*rows)
	for i := range colIdx {
		colIdx[i] = i % 6
		rowPtr[i/6+1] = i + 1
	}
	return sparse.NewRect(rows, 6, rowPtr, colIdx, append([]float64(nil), vals...))
}

// serve runs one request through the handler stack.
func serve(h http.Handler, method, path string, body io.Reader) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec.Code, rec.Body.String()
}

// stepOnFreshSequence opens a sequence, sends body as its first step,
// and closes it again.
func stepOnFreshSequence(t testing.TB, srv *server.Server, create, body string) (int, string) {
	t.Helper()
	status, resp := serve(srv, "POST", "/v1/sequence", strings.NewReader(create))
	var info server.SequenceInfo
	if err := json.Unmarshal([]byte(resp), &info); err != nil || status != http.StatusCreated {
		t.Fatalf("create %s: %d %s", create, status, resp)
	}
	defer serve(srv, "DELETE", "/v1/sequence/"+info.ID, nil)
	return serve(srv, "POST", "/v1/sequence/"+info.ID+"/step", strings.NewReader(body))
}

func errBody(code, detail string) string {
	blob, _ := json.Marshal(server.ErrorResponse{Code: code, Error: detail})
	return string(blob) + "\n"
}

func malformed(detail string) string { return errBody("bad_request", "malformed JSON: "+detail) }

// bodyCase is one request body and the answer it gets. A 200 names, in
// place of its bytes, a twin: the same request spelled outside the
// scanner's subset (an escaped or upper-case key), whose response must
// be the same bytes.
type bodyCase struct {
	body   string
	status int
	want   string
	twin   string
}

func runBodyCases(t *testing.T, do func(body string) (int, string), cases []bodyCase) {
	t.Helper()
	for _, tc := range cases {
		status, got := do(tc.body)
		want := tc.want
		if tc.twin != "" {
			var twinStatus int
			if twinStatus, want = do(tc.twin); twinStatus != tc.status {
				t.Errorf("twin %q: status %d, want %d: %s", tc.twin, twinStatus, tc.status, want)
			}
		}
		if status != tc.status || got != want {
			t.Errorf("%q:\n got %d %s\nwant %d %s", tc.body, status, got, tc.status, want)
		}
	}
}

func TestSolveBodies(t *testing.T) {
	srv := tinyServer(t, server.Config{})
	do := func(body string) (int, string) { return serve(srv, "POST", "/v1/solve", strings.NewReader(body)) }
	const head = `{"operator":"tiny","method":"cg",`
	unmarshal := func(what, field, typ string) string {
		return malformed("json: cannot unmarshal " + what + " into Go struct field SolveRequest." + field + " of type " + typ)
	}
	runBodyCases(t, do, []bodyCase{
		// Accepted requests: scanned spelling against reflected spelling.
		{body: head + `"rhs":[1,1],"params":{"tol":1e-12}}`, status: 200, twin: head + `"RHS":[1,1],"params":{"tol":1e-12}}`},
		{body: " {\n \"operator\" : \"tiny\" ,\t\"method\":\"cg\",\r\n\"rhs\" : [ 1 , 1 ] }\n", status: 200, twin: head + `"\u0072hs":[1,1]}`},
		{body: head + `"rhs":[-0,1E5]}`, status: 200, twin: head + `"Rhs":[-0,1E5]}`},
		{body: head + `"rhs":[1e-400,0.30000000000000004]}`, status: 200, twin: head + `"Rhs":[1e-400,0.30000000000000004]}`},
		{body: head + `"rhs":[1,1]}trailing garbage`, status: 200, twin: head + `"RHS":[1,1]}trailing garbage`},
		{body: head + `"rhs":[1,2],"precond":null,"timeout_ms":null,"params":null}`, status: 200, twin: head + `"RHS":[1,2]}`},
		{body: head + `"rhs":[1,1],"rhs":[3,4]}`, status: 200, twin: head + `"RHS":[3,4]}`},
		{body: `{"operator":"tall","method":"lsqr","rhs":[1,2,3],"params":{"tol":1e-10,"max_iter":50,"history":true},"timeout_ms":2000}`, status: 200,
			twin: `{"Operator":"tall","method":"lsqr","rhs":[1,2,3],"params":{"tol":1e-10,"max_iter":50,"history":true},"timeout_ms":2000}`},
		{body: `{"operator":"t\u0069ny","method":"cg","rhs":[1,1]}`, status: 200, twin: head + `"rhs":[1,1]}`},

		// Well-formed bodies the handler refuses.
		{body: `null`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: `{}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: head + `"rhs":[]}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: head + `"rhs":null}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: `{"rhs":[1,1]}`, status: 400, want: errBody("bad_request", "missing method")},
		{body: head + `"rhs":[1,2,3]}`, status: 400, want: errBody("dim_mismatch", `rhs 0 has length 3 but operator "tiny" has 2 rows`)},
		{body: "{\"operator\":\"ti\xc3\xb1y\",\"method\":\"cg\",\"rhs\":[1,1]}", status: 404, want: errBody("unknown_operator", `server: unknown operator: "tiñy"`)},
		{body: head + `"rhs":[1,1],"params":{"tol":-1}}`, status: 400, want: errBody("bad_option", "solve: params: tol must be >= 0, got -1: krylov: invalid solver option")},

		// Bodies encoding/json refuses; the words are its own.
		{body: ``, status: 400, want: malformed("EOF")},
		{body: ` `, status: 400, want: malformed("EOF")},
		{body: `[]`, status: 400, want: malformed("json: cannot unmarshal array into Go value of type server.SolveRequest")},
		{body: `{"rhs":[1,1`, status: 400, want: malformed("unexpected EOF")},
		{body: head + `"rhs":[1,1],"params":{"tol":1`, status: 400, want: malformed("unexpected EOF")},
		{body: head + `"rhs":[1,1],"bogus":1}`, status: 400, want: malformed(`json: unknown field "bogus"`)},
		{body: head + `"rhs":[1,1],"vals":[1]}`, status: 400, want: malformed(`json: unknown field "vals"`)},
		{body: head + `"rhs":[1,1],"params":{"bogus":1}}`, status: 400, want: malformed(`json: unknown field "bogus"`)},
		{body: head + `"rhs":[1,1],"params":{"tol":{"a":1}}}`, status: 400, want: malformed("json: cannot unmarshal object into Go struct field Params.params.tol of type float64")},
		{body: head + `"rhs":[1,1],"params":{"max_iter":1.5}}`, status: 400, want: malformed("json: cannot unmarshal number 1.5 into Go struct field Params.params.max_iter of type int")},
		{body: head + `"rhs":"x"}`, status: 400, want: unmarshal("string", "rhs", "[]float64")},
		{body: head + `"rhs":[1,"x"]}`, status: 400, want: unmarshal("string", "rhs", "float64")},
		{body: head + `"rhs":[1,1],"timeout_ms":1.5}`, status: 400, want: unmarshal("number 1.5", "timeout_ms", "int")},
		{body: head + `"rhs":[1,1],"timeout_ms":1e3}`, status: 400, want: unmarshal("number 1e3", "timeout_ms", "int")},
		{body: head + `"rhs":[1e999,1]}`, status: 400, want: unmarshal("number 1e999", "rhs", "float64")},
		{body: head + `"rhs":[01,1]}`, status: 400, want: malformed("invalid character '1' after array element")},
		{body: head + `"rhs":[1.,1]}`, status: 400, want: malformed("invalid character ',' after decimal point in numeric literal")},
		{body: head + `"rhs":[.5,1]}`, status: 400, want: malformed("invalid character '.' looking for beginning of value")},
		{body: head + `"rhs":[+1,1]}`, status: 400, want: malformed("invalid character '+' looking for beginning of value")},
		{body: head + `"rhs":[NaN,1]}`, status: 400, want: malformed("invalid character 'N' looking for beginning of value")},
		{body: head + `"rhs":[Infinity,1]}`, status: 400, want: malformed("invalid character 'I' looking for beginning of value")},
		{body: head + `"rhs":[0x10,1]}`, status: 400, want: malformed("invalid character 'x' after array element")},
		{body: head + `"rhs":[1_0,1]}`, status: 400, want: malformed("invalid character '_' after array element")},
		{body: head + `"rhs":[1,1],}`, status: 400, want: malformed("invalid character '}' looking for beginning of object key string")},
	})
}

func TestBatchBodies(t *testing.T) {
	srv := tinyServer(t, server.Config{})
	do := func(body string) (int, string) {
		return serve(srv, "POST", "/v1/solve/batch", strings.NewReader(body))
	}
	const head = `{"operator":"tiny","method":"pipecg",`
	runBodyCases(t, do, []bodyCase{
		{body: head + `"rhs":[[1,1],[2,0],[0,3]]}`, status: 200, twin: head + `"RHS":[[1,1],[2,0],[0,3]]}`},
		{body: head + `"rhs": [ [1, 1] ,[ -0 , 1E5 ] ], "params": {"tol": 1e-12, "batch_workers": 2}}`, status: 200,
			twin: head + `"\u0072hs":[[1,1],[-0,1E5]],"params":{"tol":1e-12,"batch_workers":2}}`},
		{body: head + `"rhs":[[1,1]]}xyz`, status: 200, twin: head + `"Rhs":[[1,1]]}xyz`},

		{body: `null`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: head + `"rhs":[]}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: head + `"rhs":null}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: head + `"rhs":[[1,1],[]]}`, status: 400, want: errBody("dim_mismatch", `rhs 1 has length 0 but operator "tiny" has 2 rows`)},
		{body: head + `"rhs":[[1,1],null]}`, status: 400, want: errBody("dim_mismatch", `rhs 1 has length 0 but operator "tiny" has 2 rows`)},

		{body: ``, status: 400, want: malformed("EOF")},
		{body: head + `"rhs":[[1,1],[2`, status: 400, want: malformed("unexpected EOF")},
		{body: head + `"rhs":[1,1]}`, status: 400, want: malformed("json: cannot unmarshal number into Go struct field BatchRequest.rhs of type []float64")},
		{body: head + `"rhs":[[1,1]],"rescale":2}`, status: 400, want: malformed(`json: unknown field "rescale"`)},
		{body: head + `"rhs":[[1,01]]}`, status: 400, want: malformed("invalid character '1' after array element")},
		{body: head + `"rhs":[[1e999,1]]}`, status: 400, want: malformed("json: cannot unmarshal number 1e999 into Go struct field BatchRequest.rhs of type float64")},
	})
}

func TestStepBodies(t *testing.T) {
	srv := tinyServer(t, server.Config{})
	const create = `{"operator":"tall","method":"lsqr","params":{"tol":1e-12}}`
	seqID := regexp.MustCompile(`seq-[0-9]+`)
	do := func(body string) (int, string) {
		status, resp := stepOnFreshSequence(t, srv, create, body)
		return status, seqID.ReplaceAllString(resp, "seq-N")
	}
	unmarshal := func(what, field, typ string) string {
		return malformed("json: cannot unmarshal " + what + " into Go struct field SequenceStepRequest." + field + " of type " + typ)
	}
	runBodyCases(t, do, []bodyCase{
		{body: `{"rhs":[1,2,3]}`, status: 200, twin: `{"RHS":[1,2,3]}`},
		{body: `{"rhs":[1,2,3],"vals":[6,5,4,3,2,1]}`, status: 200, twin: `{"rhs":[1,2,3],"Vals":[6,5,4,3,2,1]}`},
		{body: `{"rhs": [1, 1, 1], "rescale": 1.5, "vals": [ 1,2,3,4,5,-6.5e-1 ], "timeout_ms": 2000}`, status: 200,
			twin: `{"rhs":[1,1,1],"\u0072escale":1.5,"vals":[1,2,3,4,5,-6.5e-1],"timeout_ms":2000}`},
		{body: `{"rhs":[1,2,3],"vals":null,"rescale":null}`, status: 200, twin: `{"RHS":[1,2,3]}`},
		{body: `{"vals":[1,2,3,4,5,6],"rhs":[-0,1E5,1e-400]}` + "\x00\xff", status: 200, twin: `{"Vals":[1,2,3,4,5,6],"rhs":[-0,1E5,1e-400]}`},

		{body: `{}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: `{"rhs":[],"vals":[1,2,3,4,5,6]}`, status: 400, want: errBody("bad_request", "missing rhs")},
		{body: `{"rhs":[1,2]}`, status: 400, want: errBody("dim_mismatch", `rhs has length 2 but sequence "seq-N" expects 3 rows`)},
		{body: `{"rhs":[1,2,3],"vals":[]}`, status: 400, want: errBody("dim_mismatch", "solve: sequence value update has 0 values but the operator stores 6: sparse: dimension mismatch")},
		{body: `{"rhs":[1,2,3],"vals":[1]}`, status: 400, want: errBody("dim_mismatch", "solve: sequence value update has 1 values but the operator stores 6: sparse: dimension mismatch")},

		{body: ``, status: 400, want: malformed("EOF")},
		{body: `{"rhs":[1,2,3],"vals":[1,2,3,4,5`, status: 400, want: malformed("unexpected EOF")},
		{body: `{"rhs":[1,2,3],"operator":"tall"}`, status: 400, want: malformed(`json: unknown field "operator"`)},
		{body: `{"rhs":[1,2,3],"rescale":"2"}`, status: 400, want: unmarshal("string", "rescale", "float64")},
		{body: `{"rhs":[1,2,3],"rescale":1e999}`, status: 400, want: unmarshal("number 1e999", "rescale", "float64")},
		{body: `{"rhs":[1,2,3],"vals":[1,2,3,4,5,0x6]}`, status: 400, want: malformed("invalid character 'x' after array element")},
		{body: `{"rhs":[1,2,3],"vals":[1,2,3,4,5,6.]}`, status: 400, want: malformed("invalid character ']' after decimal point in numeric literal")},
	})
}

// unknownLength hides a reader's length from the request, so it
// arrives as a chunked upload would: ContentLength -1, bounded only by
// ServeHTTP's MaxBytesReader.
type unknownLength struct{ io.Reader }

// TestBodyLimit413: past MaxBodyBytes each transport still words its
// own refusal, whether the length was declared or not, and a body that
// completes inside the limit is served.
func TestBodyLimit413(t *testing.T) {
	srv := tinyServer(t, server.Config{MaxBodyBytes: 64})
	long := `{"operator":"tiny","method":"cg","rhs":[1,1],"params":{"tol":1e-12},"precond":""}`
	short := `{"operator":"tiny","method":"cg","rhs":[1,1]}`
	tooLarge := errBody("bad_request", "request body exceeds 64 bytes")
	for _, path := range []string{"/v1/solve", "/v1/solve/batch"} {
		if status, got := serve(srv, "POST", path, unknownLength{strings.NewReader(long)}); status != 413 || got != tooLarge {
			t.Errorf("%s, unknown length: got %d %s, want 413 %s", path, status, got, tooLarge)
		}
		if status, got := serve(srv, "POST", path, strings.NewReader(long)); status != 413 || got != tooLarge {
			t.Errorf("%s, declared length: got %d %s, want 413 %s", path, status, got, tooLarge)
		}
	}
	if status, got := stepOnFreshSequence(t, srv, `{"operator":"tiny","method":"cg"}`, `{"rhs":[1,1],"vals":[2,-1,-1,2],"timeout_ms":100000000,"rescale":1.25}`); status != 413 || got != tooLarge {
		t.Errorf("step: got %d %s, want 413 %s", status, got, tooLarge)
	}
	if status, got := serve(srv, "POST", "/v1/solve", unknownLength{strings.NewReader(short)}); status != 200 {
		t.Errorf("unknown length inside the limit: %d %s", status, got)
	}
	// The value ends inside the limit and only padding crosses it: the
	// parent's streaming decoder never read that far, and answered.
	if status, got := serve(srv, "POST", "/v1/solve", unknownLength{strings.NewReader(short + strings.Repeat(" ", 64))}); status != 200 {
		t.Errorf("value inside the limit, padding past it: %d %s", status, got)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/solve", unknownLength{bytes.NewReader(make([]byte, 100))})
	req.Header.Set("Content-Type", server.BinaryContentType)
	srv.ServeHTTP(rec, req)
	if want := errBody("bad_request", "request body exceeds the configured limit"); rec.Code != 413 || rec.Body.String() != want {
		t.Errorf("binary: got %d %s, want 413 %s", rec.Code, rec.Body, want)
	}
}

// TestDeclaredLengthIsNotAReservation: a request that declares the
// largest body the server takes and then sends ten bytes is answered as
// before, and pins a buffer the size of what arrived, not of what was
// promised.
func TestDeclaredLengthIsNotAReservation(t *testing.T) {
	srv := tinyServer(t, server.Config{})
	for _, tc := range []struct{ name, contentType, want string }{
		{"binary", server.BinaryContentType, errBody("bad_request", "short read: unexpected EOF")},
		{"json", "application/json", malformed("unexpected EOF")},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/solve", unknownLength{strings.NewReader(`{"rhs":[1,`)})
		req.ContentLength = 256 << 20
		req.Header.Set("Content-Type", tc.contentType)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != 400 || rec.Body.String() != tc.want {
			t.Errorf("%s: got %d %s, want 400 %s", tc.name, rec.Code, rec.Body, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
			t.Errorf("%s: a declared 256 MiB body that ended after 10 bytes allocated %d bytes, want < 2 MiB", tc.name, grew)
		}
	}
}

// TestStepScratchSurvivesCollection: the request scratch a warm
// serve-icp step decodes into (a ~690 KB body buffer, 35,000 floats) is
// the server's, not the collector's: after two collections the next
// step allocates nothing proportional to its payload.
func TestStepScratchSurvivesCollection(t *testing.T) {
	step, _ := icpStepper(t)
	step() // the cold solve, and the scratch's growth
	step()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a warm step after two collections allocated %d bytes, want < 64 KiB", got)
	}
}

// TestJSONBodiesMetric: /metrics counts which decoder each solve, batch
// and step body went to, and every body the repository itself emits —
// json.Marshal of the request structs, as examples/icp and the test
// clients send them, and the curl lines of docs/api.md — goes to the
// scanner.
func TestJSONBodiesMetric(t *testing.T) {
	srv := tinyServer(t, server.Config{})
	counts := func() (scanned, reflected uint64) {
		_, body := serve(srv, "GET", "/metrics", nil)
		var snap struct {
			JSONBodies *struct{ Scanned, Reflected uint64 } `json:"json_bodies"`
		}
		if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.JSONBodies == nil {
			t.Fatalf("/metrics has no json_bodies block (%v): %s", err, body)
		}
		return snap.JSONBodies.Scanned, snap.JSONBodies.Reflected
	}
	if s, r := counts(); s != 0 || r != 0 {
		t.Fatalf("fresh server: scanned %d reflected %d", s, r)
	}

	marshal := func(v any) string {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	f := 1.5
	sent := 0
	post := func(path, body string) {
		t.Helper()
		if status, resp := serve(srv, "POST", path, strings.NewReader(body)); status != 200 {
			t.Fatalf("POST %s %s: %d %s", path, body, status, resp)
		}
		sent++
	}
	step := func(create, body string) {
		t.Helper()
		if status, resp := stepOnFreshSequence(t, srv, create, body); status != 200 {
			t.Fatalf("step %s: %d %s", body, status, resp)
		}
		sent++
	}
	post("/v1/solve", marshal(server.SolveRequest{Operator: "tiny", Method: "cg", RHS: []float64{1, 1}, Params: &solve.Params{Tol: 1e-10}, TimeoutMS: 2000}))
	post("/v1/solve/batch", marshal(server.BatchRequest{Operator: "tiny", Method: "cg", RHS: [][]float64{{1, 1}, {0, 2}}, Params: &solve.Params{Tol: 1e-10}}))
	createTall := marshal(server.SequenceCreateRequest{Operator: "tall", Method: "lsqr"})
	step(createTall, marshal(server.SequenceStepRequest{RHS: []float64{1, 2, 3}})) // examples/icp's first step
	step(createTall, marshal(server.SequenceStepRequest{RHS: []float64{1, 2, 3}, Vals: []float64{6, 5, 4, 3, 2, 1}, Rescale: &f}))

	// The curl lines of docs/api.md, against the "tiny" operator they
	// assume.
	docs, err := os.ReadFile("../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	curls := regexp.MustCompile(`curl [^\n]*localhost:8080(/v1/[a-z/$]+)[^\n]*(?:\\\n[^\n]*)?-d '([^']*)'`).FindAllStringSubmatch(string(docs), -1)
	docBodies := 0
	for _, m := range curls {
		switch path, body := m[1], m[2]; {
		case path == "/v1/solve" || path == "/v1/solve/batch":
			post(path, body)
			docBodies++
		case strings.HasSuffix(path, "/step"):
			step(`{"operator":"tiny","method":"cg","params":{"tol":1e-12}}`, body)
			docBodies++
		}
	}
	if docBodies < 4 {
		t.Fatalf("found %d solve/batch/step curl bodies in docs/api.md, want the 4 it documents", docBodies)
	}
	if s, r := counts(); s != uint64(sent) || r != 0 {
		t.Errorf("after %d repository-shaped bodies: scanned %d reflected %d, want all scanned", sent, s, r)
	}

	// Outside the subset — served all the same, and counted as such. A
	// malformed body counts as reflected too: encoding/json refused it.
	post("/v1/solve", `{"operator":"tiny","method":"cg","RHS":[1,1]}`)
	serve(srv, "POST", "/v1/solve", strings.NewReader(`{"rhs":[1,`))
	if s, r := counts(); s != uint64(sent-1) || r != 2 {
		t.Errorf("after one upper-case key and one truncated body: scanned %d reflected %d, want %d and 2", s, r, sent-1)
	}
	// The binary transport and the other JSON routes are not counted.
	serve(srv, "POST", "/v1/sequence", strings.NewReader(`{"Operator":"tiny","method":"cg"}`))
	if _, r := counts(); r != 2 {
		t.Errorf("a sequence create moved json_bodies.reflected to %d", r)
	}
}

// TestConcurrentSequenceStepsKeepTheirPayloads: eight goroutines step
// eight sequences through the pooled scratch at once, each with its own
// Jacobian and residuals; each must get the solution of its own system,
// bit for bit what the library computes for it. Run under -race.
func TestConcurrentSequenceStepsKeepTheirPayloads(t *testing.T) {
	const clients, steps, rows = 8, 6, 60
	srv := server.New(server.Config{MaxConcurrent: clients})
	_, _, base := server.ICPStepBody(rows, 99)
	if err := srv.Preload("jac", icpJacobian(base)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, resp := serve(srv, "POST", "/v1/sequence", strings.NewReader(`{"operator":"jac","method":"lsqr","params":{"tol":1e-12}}`))
			var info server.SequenceInfo
			if err := json.Unmarshal([]byte(resp), &info); err != nil || status != http.StatusCreated {
				t.Errorf("client %d create: %d %s", c, status, resp)
				return
			}
			ref, err := solve.NewSequence("lsqr", icpJacobian(base), solve.WithTol(1e-12))
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < steps; k++ {
				body, rhs, vals := server.ICPStepBody(rows, int64(1000*c+k))
				status, resp := serve(srv, "POST", "/v1/sequence/"+info.ID+"/step", bytes.NewReader(body))
				var got server.SequenceStepResponse
				if err := json.Unmarshal([]byte(resp), &got); err != nil || status != http.StatusOK {
					t.Errorf("client %d step %d: %d %s", c, k, status, resp)
					return
				}
				if err := ref.UpdateValues(vals); err != nil {
					t.Error(err)
					return
				}
				want, err := ref.Step(rhs)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Iterations != want.Iterations || len(got.X) != len(want.X) {
					t.Errorf("client %d step %d: %d iterations, %d unknowns; its own system takes %d, %d", c, k, got.Iterations, len(got.X), want.Iterations, len(want.X))
					return
				}
				for i := range want.X {
					if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
						t.Errorf("client %d step %d: x[%d] = %g, its own system gives %g", c, k, i, got.X[i], want.X[i])
						return
					}
				}
			}
			serve(srv, "DELETE", "/v1/sequence/"+info.ID, nil)
		}(c)
	}
	wg.Wait()
	_, metrics := serve(srv, "GET", "/metrics", nil)
	if want := fmt.Sprintf(`"json_bodies":{"scanned":%d,"reflected":0}`, clients*steps); !strings.Contains(metrics, want) {
		t.Errorf("metrics lack %s: %s", want, metrics)
	}
}

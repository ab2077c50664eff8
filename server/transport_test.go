package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vrcg/cluster/wire"
	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// Tests of the one request pipeline behind both transports: whatever
// carried the bytes, a request is admitted, solved, counted and
// answered the same way.

// transportReply is a solve or batch response reduced to what both
// transports must agree on.
type transportReply struct {
	status  int
	code    string      // response-level code ("" on a 200)
	codes   []string    // per-result codes
	x       [][]float64 // per-result solutions
	errBody string      // the plain error body, when that is what came back
}

// ask sends one request in-process and reduces the response.
func ask(t *testing.T, srv *server.Server, path, contentType string, body []byte) transportReply {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	out := transportReply{status: rec.Code}
	if rec.Header().Get("Content-Type") == server.BinaryContentType {
		var results []binResult
		out.code, results = decodeBinResponse(t, rec.Body.Bytes())
		for _, r := range results {
			out.codes = append(out.codes, r.code)
			out.x = append(out.x, r.x)
		}
		return out
	}
	var doc struct {
		Code    string              `json:"code"`
		Error   string              `json:"error"`
		Method  string              `json:"method"`
		X       []float64           `json:"x"`
		Results []server.WireResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s: response is not JSON: %v: %s", path, err, rec.Body)
	}
	switch {
	case doc.Code != "":
		out.code, out.errBody = doc.Code, rec.Body.String()
	case doc.Results != nil:
		out.code = doc.Error
		for _, r := range doc.Results {
			out.codes = append(out.codes, r.Error)
			out.x = append(out.x, r.X)
		}
	default:
		out.code, out.codes, out.x = doc.Error, []string{doc.Error}, [][]float64{doc.X}
	}
	return out
}

// latencyCounts reads the solve_latency_ms observation count of every
// key off /metrics.
func latencyCounts(t *testing.T, srv *server.Server) map[string]uint64 {
	t.Helper()
	_, body := serve(srv, "GET", "/metrics", nil)
	var snap struct {
		SolveLatency map[string]struct{ Count uint64 } `json:"solve_latency_ms"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]uint64)
	for k, h := range snap.SolveLatency {
		counts[k] = h.Count
	}
	return counts
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestTransportsAgree drives one table of outcomes — solved, partly
// solved, refused at every stage from decode to admission — through
// both routes over both transports: same status, same codes, the same
// error body or the same solutions to the bit, and the method's latency
// key moved once per request that reached a solve.
func TestTransportsAgree(t *testing.T) {
	a, b := testSystem(6)
	srv := tinyServer(t, server.Config{MaxConcurrent: 2, MaxQueue: 2})
	if err := srv.Preload("poisson", a); err != nil {
		t.Fatal(err)
	}
	b2 := make([]float64, len(b))
	for i := range b2 {
		b2[i] = b[i] + 1
	}
	zero := make([]float64, len(b))
	cases := []struct {
		name      string
		operator  string
		method    string
		params    *solve.Params
		timeoutMS int
		rhs       [][]float64 // the batch; the single solve takes rhs[0]
		occupy    [2]int      // run slots and queue places held meanwhile
		status    int
		code      string
		codes     []string // per right-hand side, on the batch route
		solved    bool
	}{
		{name: "ok", operator: "poisson", method: "cg", params: &solve.Params{Tol: 1e-10}, rhs: [][]float64{b, b2},
			status: 200, codes: []string{"", ""}, solved: true},
		{name: "not converged", operator: "poisson", method: "cg", params: &solve.Params{Tol: 1e-14, MaxIter: 2}, rhs: [][]float64{b, zero, b2},
			status: 422, code: "not_converged", codes: []string{"not_converged", "", "not_converged"}, solved: true},
		{name: "dim mismatch", operator: "poisson", method: "cg", rhs: [][]float64{b[:4], b},
			status: 400, code: "dim_mismatch"},
		{name: "unknown operator", operator: "nope", method: "cg", rhs: [][]float64{b, b2},
			status: 404, code: "unknown_operator"},
		{name: "unknown method", operator: "poisson", method: "zigzag", rhs: [][]float64{b, b2},
			status: 400, code: "unknown_method"},
		{name: "bad params", operator: "poisson", method: "cg", params: &solve.Params{Tol: -1}, rhs: [][]float64{b, b2},
			status: 400, code: "bad_option"},
		{name: "unsupported operator", operator: "tall", method: "cg", rhs: [][]float64{{1, 2, 3}, {3, 2, 1}},
			status: 422, code: "unsupported_operator"},
		{name: "queue full", operator: "poisson", method: "cg", rhs: [][]float64{b, b2}, occupy: [2]int{0, 4},
			status: 429, code: "queue_full"},
		{name: "deadline", operator: "poisson", method: "cg", timeoutMS: 5, rhs: [][]float64{b, b2}, occupy: [2]int{2, 0},
			status: 504, code: "deadline_exceeded"},
	}
	for _, tc := range cases {
		for _, route := range []struct {
			path   string
			single bool
			key    string
		}{{"/v1/solve", true, tc.method}, {"/v1/solve/batch", false, tc.method + "/batch"}} {
			rhs, codes := tc.rhs, tc.codes
			var jsonBody []byte
			if route.single {
				rhs = rhs[:1]
				if codes != nil {
					codes = codes[:1]
				}
				jsonBody = mustJSON(t, server.SolveRequest{Operator: tc.operator, Method: tc.method, RHS: rhs[0], Params: tc.params, TimeoutMS: tc.timeoutMS})
			} else {
				jsonBody = mustJSON(t, server.BatchRequest{Operator: tc.operator, Method: tc.method, RHS: rhs, Params: tc.params, TimeoutMS: tc.timeoutMS})
			}
			var replies [2]transportReply
			for i, send := range []struct {
				contentType string
				body        []byte
			}{
				{"application/json", jsonBody},
				{server.BinaryContentType, binSolveBody(tc.operator, tc.method, "", tc.params, tc.timeoutMS, rhs...)},
			} {
				name := fmt.Sprintf("%s %s %s", tc.name, route.path, send.contentType)
				release := srv.Occupy(tc.occupy[0], tc.occupy[1])
				before := latencyCounts(t, srv)
				got := ask(t, srv, route.path, send.contentType, send.body)
				after := latencyCounts(t, srv)
				release()
				replies[i] = got

				if got.status != tc.status || got.code != tc.code {
					t.Errorf("%s: got %d %q, want %d %q", name, got.status, got.code, tc.status, tc.code)
				}
				if tc.solved {
					if got.errBody != "" || !reflect.DeepEqual(got.codes, codes) {
						t.Errorf("%s: per-result codes %q (error body %q), want %q", name, got.codes, got.errBody, codes)
					}
					for k, x := range got.x {
						if len(x) != len(rhs[k]) {
							t.Errorf("%s: result %d ships %d unknowns, want %d", name, k, len(x), len(rhs[k]))
						}
					}
				} else if got.errBody == "" {
					t.Errorf("%s: want the plain error body, got results %q", name, got.codes)
				}
				want := uint64(0)
				if tc.solved {
					want = 1
				}
				for key := range after {
					if moved := after[key] - before[key]; (key == route.key && moved != want) || (key != route.key && moved != 0) {
						t.Errorf("%s: solve_latency_ms[%q] moved by %d", name, key, moved)
					}
				}
				if tc.solved && after[route.key] == 0 {
					t.Errorf("%s: solve_latency_ms has no %q key", name, route.key)
				}
			}
			if replies[0].errBody != replies[1].errBody {
				t.Errorf("%s %s: error bodies differ:\n   json %s\n binary %s", tc.name, route.path, replies[0].errBody, replies[1].errBody)
			}
			if !sameBits(replies[0].x, replies[1].x) {
				t.Errorf("%s %s: solutions differ between the transports", tc.name, route.path)
			}
		}
	}
	if running, admitted := srv.Slots(); running != 0 || admitted != 0 {
		t.Errorf("slots still held after the table: %d running, %d admitted", running, admitted)
	}
}

// TestParamsDecodeAgree: a params value means the same thing in a JSON
// body and in a binary frame's params string. The binary side is held,
// row by row, to what json.Unmarshal — its decoder before the two were
// one — makes of the string: the same refusal bytes for what that
// refused, and for what it accepted the same solve as the JSON side,
// with one deliberate difference: a field solve.Params does not have is
// now refused there as it always was over JSON.
func TestParamsDecodeAgree(t *testing.T) {
	a, b := testSystem(6)
	srv := server.New(server.Config{})
	if err := srv.Preload("poisson", a); err != nil {
		t.Fatal(err)
	}
	rhs := string(mustJSON(t, b))
	for _, tc := range []struct {
		params  string
		status  int
		unknown string // the field name both transports refuse
	}{
		{params: `{"tol":1e-12}`, status: 200},
		{params: `{"tol":1e-12} `, status: 200},
		{params: `null`, status: 200},
		{params: `{}`, status: 200},
		{params: `{"Tol":1e-12,"MAX_ITER":500}`, status: 200},
		{params: `{"tol":1e-14,"max_iter":2}`, status: 422},
		{params: `{"tol":1e-12,"tol":1e-14,"max_iter":2}`, status: 422},
		{params: `{"tol":-1}`, status: 400},
		{params: `{"tolerance":1e-3}`, status: 400, unknown: "tolerance"},
		{params: `{"tol":1e-12,"bogus":{"a":[1]}}`, status: 400, unknown: "bogus"},
		{params: `{"tol":"x"}`, status: 400},
		{params: `{"max_iter":1.5}`, status: 400},
		{params: `[]`, status: 400},
		{params: `{"tol":1e-12}x`, status: 400},
		{params: `{"tol":"x"}x`, status: 400},
		{params: `{"tol":1e-12`, status: 400},
		{params: ` `, status: 400},
		{params: `{"tol":1e-12}{}`, status: 400},
	} {
		jsonBody := `{"operator":"poisson","method":"cg","rhs":` + rhs + `,"params":` + tc.params + `}`
		overJSON := ask(t, srv, "/v1/solve", "application/json", []byte(jsonBody))

		enc := wire.NewEnc(256)
		enc.U8(1)
		enc.Str("poisson")
		enc.Str("cg")
		enc.Str("")
		enc.Str(tc.params)
		enc.U32(0)
		enc.U32(1)
		enc.F64s(b)
		overBinary := ask(t, srv, "/v1/solve", server.BinaryContentType, enc.B)
		enc.Release()

		if overJSON.status != tc.status || overBinary.status != tc.status {
			t.Errorf("%q: JSON %d, binary %d, want %d", tc.params, overJSON.status, overBinary.status, tc.status)
			continue
		}
		if overJSON.code != overBinary.code || !sameBits(overJSON.x, overBinary.x) {
			t.Errorf("%q: JSON answers %q, binary %q, or their solutions differ", tc.params, overJSON.code, overBinary.code)
		}
		var ref solve.Params
		refErr := json.Unmarshal([]byte(tc.params), &ref)
		switch {
		case tc.unknown != "":
			unknown := `json: unknown field "` + tc.unknown + `"`
			if refErr != nil {
				t.Fatalf("%q: the reference decoder refuses it too: %v", tc.params, refErr)
			}
			if want := malformed(unknown); overJSON.errBody != want {
				t.Errorf("%q over JSON: got %s, want %s", tc.params, overJSON.errBody, want)
			}
			if want := errBody("bad_request", "malformed params JSON: "+unknown); overBinary.errBody != want {
				t.Errorf("%q over binary: got %s, want %s", tc.params, overBinary.errBody, want)
			}
		case refErr != nil:
			if want := errBody("bad_request", "malformed params JSON: "+refErr.Error()); overBinary.errBody != want {
				t.Errorf("%q over binary: got %s, want %s", tc.params, overBinary.errBody, want)
			}
			if overJSON.code != "bad_request" {
				t.Errorf("%q over JSON: code %q", tc.params, overJSON.code)
			}
		case tc.status == 400: // decoded, then refused by Params.Validate: one body
			if overJSON.errBody != overBinary.errBody {
				t.Errorf("%q: JSON %s, binary %s", tc.params, overJSON.errBody, overBinary.errBody)
			}
		}
	}
}

// TestProcessorsParamRefused: the simulated machine is not on the wire.
// A parcg-cg request that still names "processors" — once the switch
// into a machine replay that ran past the request's deadline and whose
// clocks no response carried — is refused like any other unknown param,
// on both routes and both transports, before any solve runs.
func TestProcessorsParamRefused(t *testing.T) {
	a, b := testSystem(6)
	srv := server.New(server.Config{})
	if err := srv.Preload("poisson", a); err != nil {
		t.Fatal(err)
	}
	const params = `{"tol":1e-8,"processors":64}`
	unknown := `json: unknown field "processors"`
	rhs := string(mustJSON(t, b))
	for _, route := range []struct{ path, rhs string }{
		{"/v1/solve", rhs},
		{"/v1/solve/batch", "[" + rhs + "]"},
	} {
		enc := wire.NewEnc(256)
		enc.U8(1)
		enc.Str("poisson")
		enc.Str("parcg-cg")
		enc.Str("")
		enc.Str(params)
		enc.U32(0)
		enc.U32(1)
		enc.F64s(b)
		for _, send := range []struct {
			contentType string
			body        []byte
			want        string
		}{
			{"application/json", []byte(`{"operator":"poisson","method":"parcg-cg","rhs":` + route.rhs + `,"params":` + params + `}`), malformed(unknown)},
			{server.BinaryContentType, enc.B, errBody("bad_request", "malformed params JSON: "+unknown)},
		} {
			before := latencyCounts(t, srv)
			got := ask(t, srv, route.path, send.contentType, send.body)
			if got.status != http.StatusBadRequest || got.errBody != send.want {
				t.Errorf("%s %s: got %d %s, want 400 %s", route.path, send.contentType, got.status, got.errBody, send.want)
			}
			if after := latencyCounts(t, srv); !reflect.DeepEqual(after, before) {
				t.Errorf("%s %s: a solve ran: solve_latency_ms %v -> %v", route.path, send.contentType, before, after)
			}
		}
		enc.Release()
	}
}

// FuzzBinaryRequestDecode: no body makes the binary frame decoder
// panic or answer anything but 400; a decode allocates no more floats
// than the body has bytes for; and the right-hand sides of a frame it
// accepts re-encode to the bytes they were read from.
func FuzzBinaryRequestDecode(f *testing.F) {
	_, b := testSystem(3)
	whole := binSolveBody("poisson", "cg", "", &solve.Params{Tol: 1e-10}, 0, b)
	for _, seed := range [][]byte{
		whole,
		whole[:len(whole)/2], // TestBinaryErrors' truncated frame
		binSolveBody("nope", "cg", "", nil, 0, b),
		binSolveBody("poisson", "cg", "", nil, 0, b[:4]),
		binSolveBody("poisson", "pcg", "ic0", &solve.Params{Tol: 1e-14, MaxIter: 2}, 250, b, b[:1], nil),
		binSolveBody("poisson", "cg", "", nil, 0),
		append([]byte{2}, whole[1:]...),
		nil,
	} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, body []byte, single bool) {
		fr := server.DecodeBinaryFrame(body, single)
		if fr.Status != 200 {
			if fr.Status != 400 {
				t.Fatalf("a frame was refused with status %d", fr.Status)
			}
			return
		}
		if single && len(fr.RHS) != 1 {
			t.Fatalf("a single solve decoded %d right-hand sides", len(fr.RHS))
		}
		if cap(fr.RHS) > len(body)/8+1 {
			t.Fatalf("%d column slots from a %d-byte body", cap(fr.RHS), len(body))
		}
		header := 1 + 4*4 + len(fr.Operator) + len(fr.Method) + len(fr.Precond) + len(fr.Params) + 4 + 4
		enc := wire.NewEnc(len(body))
		defer enc.Release()
		floats := 0
		for _, col := range fr.RHS {
			floats += cap(col)
			enc.F64s(col)
		}
		if 8*floats > len(body) {
			t.Fatalf("%d floats of storage from a %d-byte body", floats, len(body))
		}
		if len(body) < header+len(enc.B) || !bytes.Equal(enc.B, body[header:header+len(enc.B)]) {
			t.Fatalf("the decoded right-hand sides re-encode to other bytes than they came from")
		}
	})
}

// checkShape holds a decoded JSON value to a Go type's encoding: an
// object per struct with exactly its fields — every one, the optional
// ones too — an object per map, an array per slice, and leaves of the
// field's kind.
func checkShape(t *testing.T, path string, typ reflect.Type, v any) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer:
		checkShape(t, path, typ.Elem(), v)
	case reflect.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			t.Errorf("%s: %T, want an object", path, v)
			return
		}
		fields := make(map[string]bool)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			fields[name] = true
			if sub, ok := obj[name]; !ok {
				t.Errorf("%s: no %q key", path, name)
			} else {
				checkShape(t, path+"."+name, typ.Field(i).Type, sub)
			}
		}
		for key := range obj {
			if !fields[key] {
				t.Errorf("%s: key %q is not a field of %v", path, key, typ)
			}
		}
	case reflect.Map:
		obj, ok := v.(map[string]any)
		if !ok || len(obj) == 0 {
			t.Errorf("%s: %v, want a non-empty object", path, v)
		}
		for key, sub := range obj {
			checkShape(t, path+"."+key, typ.Elem(), sub)
		}
	case reflect.Slice:
		arr, ok := v.([]any)
		if !ok || len(arr) == 0 {
			t.Errorf("%s: %v, want a non-empty array", path, v)
		}
		for i, sub := range arr {
			checkShape(t, fmt.Sprintf("%s[%d]", path, i), typ.Elem(), sub)
		}
	case reflect.String:
		if _, ok := v.(string); !ok {
			t.Errorf("%s: %T, want a string", path, v)
		}
	case reflect.Bool:
		if _, ok := v.(bool); !ok {
			t.Errorf("%s: %T, want a bool", path, v)
		}
	default:
		if _, ok := v.(float64); !ok {
			t.Errorf("%s: %T, want a number", path, v)
		}
	}
}

// TestMetricsDocumentShape: with every optional block live — solve
// phases, sequences, a fleet that has solved — the served /metrics is,
// key for key and level for level, the snapshot type's encoding.
func TestMetricsDocumentShape(t *testing.T) {
	c := newClusterClient(t, 2)
	a, b := testSystem(8)
	c.upload("poisson", a)
	if status := c.post("/v1/solve", server.SolveRequest{Operator: "poisson", Method: "parcg-pipe", RHS: b}, nil); status != http.StatusOK {
		t.Fatalf("parcg-pipe solve: status %d", status)
	}
	var info server.SequenceInfo
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &info); status != http.StatusCreated {
		t.Fatalf("sequence create: status %d", status)
	}
	if status := c.post("/v1/sequence/"+info.ID+"/step", server.SequenceStepRequest{RHS: b}, nil); status != http.StatusOK {
		t.Fatalf("sequence step: status %d", status)
	}
	if status := c.post("/v1/cluster/operators", server.OperatorUpload{Name: "sharded", Matrix: *sparse.EncodeCSR(a)}, nil); status != http.StatusCreated {
		t.Fatalf("cluster upload: status %d", status)
	}
	if status := c.post("/v1/cluster/solve", server.ClusterSolveRequest{Operator: "sharded", Method: "cg", RHS: b}, nil); status != http.StatusOK {
		t.Fatalf("cluster solve: status %d", status)
	}

	var doc any
	if status := c.get("/metrics", &doc); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	checkShape(t, "metrics", server.MetricsSnapshotType, doc)
	// Gauges the handler fills into the snapshot.
	top := doc.(map[string]any)
	if open := top["sequences"].(map[string]any)["open"]; open != 1.0 {
		t.Errorf("sequences.open = %v, want 1", open)
	}
	if count := top["operators"].(map[string]any)["count"]; count != 1.0 {
		t.Errorf("operators.count = %v, want 1", count)
	}
	if pools := top["session_pools"].(map[string]any)["pools"]; pools != 1.0 {
		t.Errorf("session_pools.pools = %v, want 1", pools)
	}
}

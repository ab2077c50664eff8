package server

import (
	"net/http/httptest"
	"reflect"
)

// Hooks for the external test package (server_test), where the shared
// request builders and clients live.

// MetricsSnapshotType is the type GET /metrics encodes.
var MetricsSnapshotType = reflect.TypeOf(metricsSnapshot{})

// Occupy takes run and queue slots directly, as solves in flight would
// hold them, and returns the function that gives them back.
func (s *Server) Occupy(running, admitted int) (release func()) {
	for i := 0; i < running; i++ {
		s.run <- struct{}{}
	}
	for i := 0; i < admitted; i++ {
		s.admit <- struct{}{}
	}
	return func() {
		for i := 0; i < running; i++ {
			<-s.run
		}
		for i := 0; i < admitted; i++ {
			<-s.admit
		}
	}
}

// Slots reports the run slots and queue places currently held.
func (s *Server) Slots() (running, admitted int) { return len(s.run), len(s.admit) }

// BinaryFrame is what the binary transport's frame decoder made of one
// body, starting from a fresh scratch: Status is 200 when it accepted
// the frame and the status it answered with otherwise; RHS and its
// capacities are the scratch's, i.e. everything the decode allocated.
type BinaryFrame struct {
	Status                            int
	Operator, Method, Precond, Params []byte
	RHS                               [][]float64
}

// DecodeBinaryFrame runs decodeBinRequest over body.
func DecodeBinaryFrame(body []byte, single bool) BinaryFrame {
	st := &reqScratch{body: body}
	rec := httptest.NewRecorder()
	req, ok := decodeBinRequest(rec, st, single)
	if !ok {
		return BinaryFrame{Status: rec.Code}
	}
	return BinaryFrame{Status: 200, Operator: req.operator, Method: req.method, Precond: req.precond, Params: req.params, RHS: st.rhs}
}

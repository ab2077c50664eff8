package server_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"testing"

	"vrcg/server"
)

// TestMethodsBodyGolden pins GET /v1/methods byte for byte against
// testdata/methods.json: clients key their method vocabulary and shape
// checks off this body, so a change to how the registry is declared
// must leave it exactly as it is.
func TestMethodsBodyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/methods.json")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, server.Config{})
	resp, err := http.Get(c.srv.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("GET /v1/methods: status %d body\n%s\nwant\n%s", resp.StatusCode, got, want)
	}
}

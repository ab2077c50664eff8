package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"vrcg/internal/trace"
)

// namedIDs returns the ids text lists after marker, up to end.
func namedIDs(t *testing.T, text, marker, end string) []string {
	t.Helper()
	_, list, ok := strings.Cut(text, marker)
	if !ok {
		t.Fatalf("%q not found in:\n%s", marker, text)
	}
	list, _, ok = strings.Cut(list, end)
	if !ok {
		t.Fatalf("%q not found after %q in:\n%s", end, marker, text)
	}
	return strings.Split(list, ", ")
}

// TestEveryNamedIDRuns holds the usage and the unknown-id message to
// the registered experiments: each names every id, each id named runs
// to a zero exit and prints something after the kernel line.
func TestEveryNamedIDRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	usage := namedIDs(t, stderr.String(), "one of: ", " (default")

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-exp", "e0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown id exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown id wrote to stdout:\n%s", stdout.String())
	}
	unknown := namedIDs(t, stderr.String(), "(ids: ", ")")

	for _, e := range experiments {
		if !slices.Contains(usage, e.id) || !slices.Contains(unknown, e.id) {
			t.Errorf("registered id %q is not named in the usage %v and the unknown-id message %v", e.id, usage, unknown)
		}
	}
	named := slices.Compact(slices.Sorted(slices.Values(append(usage, unknown...))))
	for _, id := range named {
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{"-exp", id}, &stdout, &stderr); code != 0 {
			t.Fatalf("-exp %s exited %d: %s", id, code, stderr.String())
		}
		if _, body, _ := strings.Cut(stdout.String(), "leaf kernels\n\n"); strings.TrimSpace(body) == "" {
			t.Fatalf("-exp %s printed no experiment:\n%s", id, stdout.String())
		}
	}
}

func TestE8PrintsFigure1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "e8", "-k", "6"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), trace.Figure1(6)) {
		t.Fatalf("-exp e8 -k 6 does not print trace.Figure1(6):\n%s", stdout.String())
	}
}

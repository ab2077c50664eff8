package vrcg_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vrcg/solve"
)

// TestDocsNameEveryMethod keeps the two method lists the documentation
// carries — README.md's engine-backed row and ARCHITECTURE.md's "Where
// each registry method lives" table — naming exactly solve.Methods(),
// so a method added, renamed or deleted in the registry cannot leave
// either stale.
func TestDocsNameEveryMethod(t *testing.T) {
	want := solve.Methods()

	readme := readDoc(t, "README.md")
	_, row, ok := strings.Cut(readme, "\n| engine-backed:")
	if !ok {
		t.Fatal(`README.md has no "| engine-backed:" table row`)
	}
	cell, _, _ := strings.Cut(row, "|")
	var got []string
	for _, w := range regexp.MustCompile(`[a-z][a-z0-9-]*`).FindAllString(cell, -1) {
		switch w {
		case "and", "the", "real-parallel":
		default:
			got = append(got, w)
		}
	}
	checkNames(t, "README.md's engine-backed row", got, want)

	arch := readDoc(t, "ARCHITECTURE.md")
	_, section, ok := strings.Cut(arch, "\n## Where each registry method lives\n")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "Where each registry method lives" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	got = got[:0]
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	checkNames(t, "ARCHITECTURE.md's method table", got, want)
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkNames(t *testing.T, where string, got, want []string) {
	t.Helper()
	got = slices.Clone(got)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s names %v; solve.Methods() is %v", where, got, want)
	}
}

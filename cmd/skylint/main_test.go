package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestViolationSpecsMatchAnalyzers keeps the Makefile's skylint-violations
// spec list (name:fixture-package) equal to the registered suite: every
// analyzer must be proven against its seeded-bug fixture, and no spec may
// name an analyzer that is gone.
func TestViolationSpecsMatchAnalyzers(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)skylint-violations:.*?for spec in (.*?); do`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile: no `for spec in …; do` loop under skylint-violations")
	}
	var specs []string
	for _, spec := range strings.Fields(strings.ReplaceAll(string(m[1]), `\`, " ")) {
		name, pkg, ok := strings.Cut(spec, ":")
		if !ok {
			t.Fatalf("Makefile: spec %q is not name:package", spec)
		}
		fixture := filepath.Join(root, "internal", "lint", name, "testdata", "src", pkg)
		if _, err := os.Stat(fixture); err != nil {
			t.Errorf("Makefile: spec %s has no fixture package: %v", spec, err)
		}
		specs = append(specs, name)
	}
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(specs)
	sort.Strings(names)
	if strings.Join(specs, " ") != strings.Join(names, " ") {
		t.Errorf("skylint-violations specs %v, registered analyzers %v", specs, names)
	}
}

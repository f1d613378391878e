package paper

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

const paperPath = "sdss/internal/paper"

// enginePkgs may not depend on a paper package, directly or transitively.
var enginePkgs = []string{
	"archive", "catalog", "colblk", "fits", "hashm", "htm", "load",
	"qe", "query", "region", "skygen", "sphere", "stats", "store",
}

// seedPathPaper are paper packages that still sit at their seed paths
// beside the engine: the river dataflow, the drift-scan camera and fiber
// tiling. The fence holds them to the same rules as internal/paper.
var seedPathPaper = map[string]bool{
	"sdss/internal/river":     true,
	"sdss/internal/driftscan": true,
	"sdss/internal/tiling":    true,
}

func isPaper(path string) bool {
	return path == paperPath || strings.HasPrefix(path, paperPath+"/") || seedPathPaper[path]
}

// mayImportPaper reports whether a package is allowed to import a paper
// package directly.
func mayImportPaper(path string) bool {
	return isPaper(path) || path == "sdss" || path == "sdss/internal/core" ||
		path == "sdss/cmd/skybench" || strings.HasPrefix(path, "sdss/examples/")
}

// goList runs `go list` with a -f template and returns one line per package.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list %v: %v\n%s", args, err, ee.Stderr)
		}
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// TestOnlyAllowedPackagesImportPaper checks every import, test imports
// included, across the module.
func TestOnlyAllowedPackagesImportPaper(t *testing.T) {
	lines := goList(t, "-f",
		`{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`,
		"sdss/...")
	if len(lines) < len(enginePkgs) {
		t.Fatalf("go list saw only %d packages", len(lines))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if mayImportPaper(f[0]) {
			continue
		}
		for _, imp := range f[1:] {
			if isPaper(imp) {
				t.Errorf("%s imports %s; only internal/paper, internal/core, cmd/skybench, examples and the root package may", f[0], imp)
			}
		}
	}
}

// TestEngineDoesNotDependOnPaper walks the engine packages' transitive
// dependencies: any paper package among them shows up as the import of a
// package in that closure.
func TestEngineDoesNotDependOnPaper(t *testing.T) {
	args := []string{"-deps", "-f", `{{.ImportPath}} {{join .Imports " "}}`}
	for _, p := range enginePkgs {
		args = append(args, "sdss/internal/"+p)
	}
	for _, line := range goList(t, args...) {
		f := strings.Fields(line)
		for _, imp := range f[1:] {
			if isPaper(imp) {
				t.Errorf("%s imports %s, so the engine depends on the paper simulation", f[0], imp)
			}
		}
	}
}

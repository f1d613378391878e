// Package linttest is the fixture harness for skylint analyzers — the
// dependency-free counterpart of golang.org/x/tools/go/analysis/analysistest.
// Fixture packages live under <analyzer>/testdata/src/<pkg>/ and annotate
// the lines where findings are expected:
//
//	case <-ctx.Done(): // want `without rows.interrupted.Store`
//
// Each `// want` comment carries one or more backquoted or double-quoted
// regular expressions; every expectation must be matched by a diagnostic on
// that line, and every diagnostic must be expected.
//
// Fixtures may import the standard library and sibling fixture packages:
// an import of "b" from testdata/src/a resolves to testdata/src/b, whose
// function summaries are computed first and round-tripped through the JSON
// codec before the analyzed package sees them — every multi-package fixture
// therefore exercises the same summary export/import path the vettool
// driver uses. Only the named package's files carry // want expectations;
// dependency fixtures are support code.
package linttest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"sdss/internal/lint/analysis"
)

// wantRe extracts the quoted patterns of one // want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads each named fixture package from dir/testdata/src and checks the
// analyzer's diagnostics against the // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(dir, "testdata", "src"), pkg, a)
	}
}

// fixtureImporter resolves fixture-sibling imports under root, falling back
// to a source importer for the standard library. Each fixture dependency is
// loaded once; its summaries are kept in serialized form so the analyzed
// package imports them exactly as the real drivers do.
type fixtureImporter struct {
	root     string
	fset     *token.FileSet
	fallback types.Importer
	pkgs     map[string]*types.Package
	sums     map[string][]byte
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fi.root, path)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return fi.fallback.Import(path)
	}
	lp, err := fi.load(path, dir)
	if err != nil {
		return nil, err
	}
	return lp.Pkg, nil
}

// load type-checks one fixture package (dependencies first, through Import)
// and computes + serializes its function summaries.
func (fi *fixtureImporter) load(importPath, dir string) (*analysis.LoadedPackage, error) {
	files, err := fixtureFiles(dir)
	if err != nil {
		return nil, err
	}
	lp, err := analysis.CheckFiles(fi.fset, importPath, files, nil, fi)
	if err != nil {
		return nil, fmt.Errorf("loading fixture %s: %v", importPath, err)
	}
	deps, err := fi.depView()
	if err != nil {
		return nil, err
	}
	lp.Summaries = analysis.ComputeSummaries(fi.fset, lp.Files, lp.Info, deps)
	fi.pkgs[importPath] = lp.Pkg
	enc, err := lp.Summaries.Encode()
	if err != nil {
		return nil, err
	}
	fi.sums[importPath] = enc
	return lp, nil
}

// depView decodes every already-loaded fixture package's serialized
// summaries into one dependency view — the JSON round trip is the point.
func (fi *fixtureImporter) depView() (*analysis.Summaries, error) {
	paths := make([]string, 0, len(fi.sums))
	for p := range fi.sums {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	views := make([]*analysis.Summaries, 0, len(paths))
	for _, p := range paths {
		v, err := analysis.DecodeSummaries(fi.sums[p], nil)
		if err != nil {
			return nil, fmt.Errorf("decoding %s summaries: %v", p, err)
		}
		views = append(views, v)
	}
	return analysis.MergeSummaries(views...), nil
}

func fixtureFiles(pkgDir string) ([]string, error) {
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(pkgDir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", pkgDir)
	}
	return files, nil
}

func runPackage(t *testing.T, root, importPath string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	fi := &fixtureImporter{
		root:     root,
		fset:     fset,
		fallback: importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*types.Package{},
		sums:     map[string][]byte{},
	}
	pkgDir := filepath.Join(root, importPath)
	lp, err := fi.load(importPath, pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	files, err := fixtureFiles(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	expects := collectWants(t, files)
	diags, err := lp.Run([]*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, importPath, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, e := range expects {
			if !e.matched && e.file == pos.Filename && e.line == pos.Line && e.pattern.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

// collectWants scans fixture sources for // want comments.
func collectWants(t *testing.T, files []string) []*expectation {
	t.Helper()
	var out []*expectation
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, wants, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantRe.FindAllStringSubmatch(wants, -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed // want comment (no quoted pattern)", file, i+1)
			}
			for _, m := range ms {
				pat := m[1]
				if m[2] != "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", file, i+1, pat, err)
				}
				out = append(out, &expectation{file: file, line: i + 1, pattern: re})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// Dir returns the caller-relative analyzer directory for Run, so tests read
// as linttest.Run(t, linttest.Dir(), Analyzer, "a").
func Dir() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(fmt.Sprintf("linttest: %v", err))
	}
	return wd
}

package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one package ready for analysis.
type LoadedPackage struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// Summaries layers this package's function facts over its imports'.
	Summaries *Summaries
}

// listedPackage is the slice of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	// TestGoFiles are in-package _test.go files; XTestGoFiles form the
	// separate package_test external test package.
	TestGoFiles  []string
	XTestGoFiles []string
	// Import edges, needed to process packages bottom-up so every unit sees
	// its dependencies' function summaries. TestImports covers the
	// in-package test files (checked together with GoFiles, as go vet
	// does); XTestImports the external test package.
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// Load enumerates packages matching the patterns with `go list`, parses and
// type-checks each from source in dependency order, computes function
// summaries bottom-up, and returns them ready for RunAnalyzers. In-package
// test files are checked together with the package; external _test packages
// are loaded as their own unit after their base package. dir is the module
// directory to run in ("" = current). Summaries cross package boundaries
// only within one invocation: a dependency outside the pattern set
// contributes no facts (builtin facts still apply), so a partial
// interprocedural run goes through `go vet -vettool`, whose .vetx facts
// files carry them.
func Load(dir string, patterns []string) ([]*LoadedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		listed = append(listed, p)
	}
	listed = topoOrder(listed)

	// One file set and one source importer shared across every package, so
	// common dependencies (stdlib, sibling internal packages) type-check
	// once, not per root.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	computed := map[string]*Summaries{}
	var pkgs []*LoadedPackage
	for _, p := range listed {
		units := []struct {
			path    string
			files   []string
			imports []string
		}{
			{p.ImportPath, append(append([]string{}, p.GoFiles...), p.TestGoFiles...),
				append(append([]string{}, p.Imports...), p.TestImports...)},
			{p.ImportPath + "_test", p.XTestGoFiles, p.XTestImports},
		}
		for _, u := range units {
			if len(u.files) == 0 {
				continue
			}
			abs := make([]string, len(u.files))
			for i, f := range u.files {
				abs[i] = filepath.Join(p.Dir, f)
			}
			lp, err := CheckFiles(fset, u.path, abs, nil, imp)
			if err != nil {
				return nil, err
			}
			deps := depSummaries(u.imports, computed)
			lp.Summaries = ComputeSummaries(fset, lp.Files, lp.Info, deps)
			pkgs = append(pkgs, lp)
			if u.path == p.ImportPath {
				computed[p.ImportPath] = lp.Summaries
			}
		}
	}
	return pkgs, nil
}

// topoOrder sorts the listed packages so every package comes after the
// listed packages it (or its in-package tests) imports. Unlisted imports
// (stdlib, out-of-pattern deps) are ignored; a cycle — impossible for
// compilable base units — degrades to input order for the tail.
func topoOrder(listed []listedPackage) []listedPackage {
	byPath := make(map[string]int, len(listed))
	for i, p := range listed {
		byPath[p.ImportPath] = i
	}
	ordered := make([]listedPackage, 0, len(listed))
	state := make([]int, len(listed)) // 0 unvisited, 1 on stack, 2 done
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		for _, imp := range append(append([]string{}, listed[i].Imports...), listed[i].TestImports...) {
			if j, ok := byPath[imp]; ok && state[j] == 0 {
				visit(j)
			}
		}
		state[i] = 2
		ordered = append(ordered, listed[i])
	}
	for i := range listed {
		visit(i)
	}
	return ordered
}

// depSummaries merges the summary views for a unit's imports analyzed
// earlier in this invocation, silently skipping anything unknown (builtin
// facts still apply).
func depSummaries(imports []string, computed map[string]*Summaries) *Summaries {
	merged := NewSummaries()
	for _, path := range imports {
		if v, ok := computed[path]; ok {
			mergeInto(merged, v)
		}
	}
	return merged
}

// mergeInto flattens src's whole chain into dst, newest layer winning.
func mergeInto(dst *Summaries, src *Summaries) {
	for cur := src; cur != nil; cur = cur.deps {
		for k, f := range cur.fns {
			if _, ok := dst.fns[k]; !ok {
				dst.fns[k] = f
			}
		}
	}
}

// CheckFiles parses the named files (or src overrides, keyed by filename)
// and type-checks them as one package using imp for imports. It is the
// shared core of the standalone loader, the vettool driver, and the test
// harness.
func CheckFiles(fset *token.FileSet, importPath string, filenames []string, src map[string]any, imp types.Importer) (*LoadedPackage, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		var content any
		if src != nil {
			content = src[name]
		}
		f, err := parser.ParseFile(fset, name, content, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &LoadedPackage{ImportPath: importPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Run analyzes one loaded package with every analyzer and returns the
// surviving diagnostics.
func (lp *LoadedPackage) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	pass := &Pass{
		Fset:      lp.Fset,
		Files:     lp.Files,
		Pkg:       lp.Pkg,
		TypesInfo: lp.Info,
		Summaries: lp.Summaries,
	}
	return RunAnalyzers(pass, analyzers)
}

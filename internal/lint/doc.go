// Package lint is the root of skylint, the project's static-analysis
// suite. It carries no code of its own; the subpackages are:
//
//   - analysis: a dependency-free re-implementation of the go/analysis
//     Analyzer/Pass API over stdlib go/ast + go/types, with a standalone
//     package loader, the `go vet -vettool` unitchecker protocol, the
//     //lint:skylint-ignore suppression machinery, and the
//     function-summary interprocedural layer (per-function facts computed
//     bottom-up over the call graph and exported across packages).
//   - linttest: the analysistest-style fixture harness (// want
//     comments, multi-package testdata/src trees).
//   - lockflow: shared lock-set dataflow (lock identity, held-set walk,
//     blocking-operation classification) used by lockheld and slotheld.
//   - rawoffset, nansafe, slotheld, lockheld: the analyzers.
//     See cmd/skylint's package doc for the invariant each one enforces.
//
// The suppression golden test in this package pins the tree-wide count of
// //lint:skylint-ignore directives so suppressions can only be added with
// a visible diff here.
package lint

// Command skylint is the archive's project-specific static-analysis suite:
// four analyzers that mechanically enforce the engine's convention-only
// invariants, from raw record offsets to the morsel pool's deadlock
// discipline. Copies of qe.Engine need no analyzer of their own: the
// engine holds a sync.Once, so stock `go vet` (copylocks) rejects them.
//
// # Analyzers
//
//	rawoffset   record field access goes through the layout tables, never
//	            hand-computed byte offsets.
//	nansafe     attribute/sort-key float comparisons use the NaN-aware
//	            comparators; test entry points are exempt, shared test
//	            helpers are not.
//	slotheld    no blocking operation while holding a morsel-pool slot —
//	            the pool's release-before-blocking discipline (morsel.go's
//	            blockingSend) as a checked property.
//	lockheld    no blocking operation or inconsistently-ordered second
//	            acquisition while holding a mutex; lock-order inversions
//	            report both witness sites.
//
// # Function summaries
//
// The interprocedural layer computes per-function facts (may-block)
// bottom-up over the call graph and carries them across package
// boundaries: the standalone driver processes packages in import order
// within one run, and the vettool driver serializes summaries through go
// vet's per-package .vetx facts files, so a partial run
// (`go vet -vettool=$(which skylint) ./internal/qe`) still sees its
// dependencies' facts.
//
// # Usage
//
// It runs two ways, producing identical findings:
//
//	skylint ./...                            # standalone, from the module root
//	go vet -vettool=$(which skylint) ./...   # inside go vet
//
// Both exit nonzero when any finding survives the //lint:skylint-ignore
// suppressions. `skylint -list` documents the analyzers; `skylint -json`
// emits findings as NDJSON ({"file","line","col","analyzer","message"})
// for machine consumers such as the CI annotation step.
package main

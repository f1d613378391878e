// Package sdss is a from-scratch Go reproduction of "Designing and Mining
// Multi-Terabyte Astronomy Archives: The Sloan Digital Sky Survey" (Szalay,
// Kunszt, Thakar, Gray — SIGMOD 2000), grown toward the public SkyServer
// tier the follow-on papers describe.
//
// The engine lives under internal/: the Hierarchical Triangular Mesh sky
// index (internal/htm), the half-space region algebra (internal/region),
// the container-clustered object store (internal/store), the parallel
// Query Execution Tree engine with ASAP push (internal/query, internal/qe)
// and its zones pair index (internal/hashm), the versioned /v1 REST tier
// (internal/archive), and the assembled public facade (internal/core). The
// paper's simulated machinery around the archive (the scan and hash
// machines, the Figure 2 tier pipeline, the experiments) lives under
// internal/paper, the river, tiling and camera still at internal/river,
// internal/tiling and internal/driftscan; no engine package imports them.
//
// Result sets are typed end to end: the query compiler exposes the
// projection's column names and types (query.Column), the engine's
// streaming qe.Rows carries them (Rows.Columns), and the REST tier serves
// them in JSON, NDJSON, and CSV without any hardcoded schemas. Interactive
// queries are bounded by row caps and timeouts; long-running mining queries
// run through an asynchronous job tier with admission control — the
// SkyServer interactive-vs-batch split. See README.md for the endpoint
// reference with curl examples.
//
// The benchmarks in this root package regenerate every table and figure of
// the paper; run them with
//
//	go test -bench=. -benchmem .
package sdss

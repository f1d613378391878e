// Package paper holds the simulation of the machinery the paper builds
// around the Science Archive (the scan and hash machines, the simulated
// cluster, sampling and the Figure 2 tier pipeline) and the experiments
// E1–E14 and A1–A3 that regenerate its tables and figures. The river
// dataflow, the drift-scan camera and fiber tiling are paper packages
// still at internal/river, internal/driftscan and internal/tiling.
//
// The engine depends on none of it. Only internal/paper/..., internal/core,
// cmd/skybench, examples/* and the module root may import a paper package;
// the engine packages (archive, catalog, colblk, fits, hashm, htm, load,
// qe, query, region, skygen, sphere, stats, store) may not depend on one,
// even transitively. fence_test.go enforces both rules.
package paper

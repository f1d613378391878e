// Package expt is the experiment harness: one function per table, figure,
// and quantified claim of the paper, each regenerating the corresponding
// result on the synthetic survey. cmd/skybench prints them; the root-level
// benchmarks wrap them for `go test -bench`.
//
// Experiments run at a configurable scale of the full survey (3×10⁸
// photometric objects). Extrapolations to paper scale always state the
// factor. End-to-end numbers for the archive as a whole come from the
// benchmark under bench/, not from this package.
package expt

import (
	"fmt"
	"io"
	"sync"

	"sdss/internal/catalog"
	"sdss/internal/core"
	"sdss/internal/skygen"
)

// SurveyObjects is the paper's full photometric catalog size.
const SurveyObjects = 3e8

// Config scales the experiments.
type Config struct {
	// Scale is the fraction of the full survey to generate (default 1e-4,
	// about 30,000 objects).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Nodes is the simulated cluster width (default 20, the paper's).
	Nodes int
}

// Objects returns the synthetic catalog size at this scale.
func (c Config) Objects() int {
	s := c.Scale
	if s <= 0 {
		s = 1e-4
	}
	n := int(SurveyObjects * s)
	if n < 1000 {
		n = 1000
	}
	return n
}

// ScaleFactor returns the multiplier from measured to paper scale.
func (c Config) ScaleFactor() float64 {
	return SurveyObjects / float64(c.Objects())
}

// NodeCount returns the cluster width the experiments simulate: Nodes, or
// the paper's 20 when Nodes is unset.
func (c Config) NodeCount() int {
	if c.Nodes > 0 {
		return c.Nodes
	}
	return 20
}

// Harness holds the built archive shared by the experiments.
type Harness struct {
	Cfg     Config
	Archive *core.Archive
	// Photo and Spec are the survey's rows, chunk after chunk.
	Photo []catalog.PhotoObj
	Spec  []catalog.SpecObj
}

var (
	harnessMu    sync.Mutex
	harnessCache = map[Config]*Harness{}
)

// harnessChunks is the chunk count the harness survey is generated with.
// Chunked generation seeds per (chunk, nChunks), so changing it changes
// the survey every experiment measures.
const harnessChunks = 4

// NewHarness generates the survey at the configured scale and loads it into
// an in-memory archive. Harnesses are cached per Config, so a bench run
// pays generation once.
func NewHarness(cfg Config) (*Harness, error) {
	harnessMu.Lock()
	if h, ok := harnessCache[cfg]; ok {
		harnessMu.Unlock()
		return h, nil
	}
	harnessMu.Unlock()

	// Build outside the lock: generation and loading block on the archive's
	// worker channels, and holding harnessMu across them would stall every
	// concurrent experiment on one build. Two racing builders at most waste
	// one generation; the re-check below keeps the cache single-valued.
	chunks, err := skygen.Generate(skygen.Default(cfg.Seed+1, cfg.Objects()), harnessChunks)
	if err != nil {
		return nil, err
	}
	var photo []catalog.PhotoObj
	var spec []catalog.SpecObj
	for _, ch := range chunks {
		photo = append(photo, ch.Photo...)
		spec = append(spec, ch.Spec...)
	}
	a, err := core.Create("", core.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := a.LoadObjects(photo, spec); err != nil {
		return nil, err
	}
	a.Sort()
	h := &Harness{Cfg: cfg, Archive: a, Photo: photo, Spec: spec}
	harnessMu.Lock()
	defer harnessMu.Unlock()
	if cached, ok := harnessCache[cfg]; ok {
		return cached, nil // a racing builder won; keep the cache single-valued
	}
	harnessCache[cfg] = h
	return h, nil
}

// section prints an experiment banner.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}

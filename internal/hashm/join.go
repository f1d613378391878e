// Package hashm holds the query engine's spatial pair search. Zones
// (zones.go) is the index the NEIGHBORS join builds: the zones algorithm of
// Gray, Nieto-Santisteban and Szalay — declination zones of about the
// radius's height, each sorted by ra, probed by binary-searching the ra
// window of every zone a probe's circle spans. It needs no spatial index and
// stores every build row once.
//
// SpatialIndex (this file) is the HTM-partitioned index the join used
// before: build rows hashed into coarse trixel partitions with exact margin
// replication at partition boundaries, each probe searching only its home
// partition's z band. The engine no longer uses it; it stays, with
// PartitionDepth and JoinItems, only while the benchmark's hashm probes time
// it.
package hashm

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"sdss/internal/catalog"
	"sdss/internal/htm"
	"sdss/internal/region"
	"sdss/internal/sphere"
)

// Item is one row entering a spatial join: its object identity, position on
// the unit sphere, and the caller's row index (carried back in IndexPair).
// Key, when nonzero, is the item's fine HTM trixel (any depth at or below
// the partition depth's ancestor chain, e.g. the store's embedded depth-20
// record key): SpatialIndex then derives the home partition with a bit shift
// instead of a root-to-leaf sphere walk. A zero Key falls back to the walk;
// Zones never reads it.
type Item struct {
	ID  catalog.ObjID
	Key htm.ID
	Pos sphere.Vec3
	Row int32
}

// homeTrixel returns the partition trixel owning an item: derived from the
// embedded key when present, located on the sphere otherwise.
func homeTrixel(key htm.ID, pos sphere.Vec3, depth int) (htm.ID, error) {
	if key != 0 {
		if home := key.AtDepth(depth); home != htm.Invalid {
			return home, nil
		}
	}
	return htm.Lookup(pos, depth)
}

// IndexPair is one emitted join pair: row indexes into the caller's left
// and right slices, plus the angular separation in radians.
type IndexPair struct {
	Left, Right int32
	Dist        float64
}

// PartitionDepth picks the spatial-join partition depth for a pair radius:
// the store's container depth — so partitions align with the clustering
// units the planner's coverage machinery already reasons about — coarsened
// while partition trixels do not comfortably exceed the radius (margin
// replication must stay a boundary effect, not the common case).
func PartitionDepth(containerDepth int, radius float64) int {
	depth := containerDepth
	for depth > 0 && htm.TrixelAngle(depth) < 4*radius {
		depth--
	}
	return depth
}

// partition is one trixel's slice of the build side, sorted by Pos.Z after
// Finish so probes can binary-search the declination band.
type partition struct {
	items []Item
}

// partEdges caches a partition trixel's edge-plane normals for the
// interior-item shortcut.
type partEdges struct{ n0, n1, n2 sphere.Vec3 }

// SpatialIndex is the build side of the partitioned neighbor join: items
// hashed into coarse trixel partitions with exact margin replication. Build
// with Insert from one goroutine, then Finish, then Probe freely from any
// number of goroutines.
type SpatialIndex struct {
	depth    int
	radius   float64
	sinR     float64
	cosMax   float64
	parts    map[htm.ID]*partition
	edges    map[htm.ID]partEdges
	finished bool
}

// NewSpatialIndex returns an empty index over depth-d partitions. The
// interior-item shortcut compares edge distances against sin(radius), which
// is only conservative up to π/2; the parser caps NEIGHBORS at 90°, this
// guards direct callers.
func NewSpatialIndex(radius float64, depth int) (*SpatialIndex, error) {
	if radius <= 0 || radius > math.Pi/2 {
		return nil, fmt.Errorf("hashm: join radius must be in (0, π/2] radians, got %g", radius)
	}
	if depth < 0 || depth > htm.MaxDepth {
		return nil, fmt.Errorf("hashm: partition depth %d outside [0, %d]", depth, htm.MaxDepth)
	}
	return &SpatialIndex{
		depth:  depth,
		radius: radius,
		sinR:   math.Sin(radius),
		cosMax: math.Cos(radius),
		parts:  make(map[htm.ID]*partition),
		edges:  make(map[htm.ID]partEdges),
	}, nil
}

// Depth returns the partition depth.
func (x *SpatialIndex) Depth() int { return x.depth }

// Partitions returns the number of occupied partitions.
func (x *SpatialIndex) Partitions() int { return len(x.parts) }

// add appends an item to one partition.
func (x *SpatialIndex) add(id htm.ID, it Item) {
	p := x.parts[id]
	if p == nil {
		p = &partition{}
		x.parts[id] = p
	}
	p.items = append(p.items, it)
}

// Insert hashes one item into its home partition and replicates it into
// every other partition whose trixel lies within radius — so probing any
// single partition sees every item within radius of any point inside that
// partition's trixel. Interior items (further than radius from every
// partition edge) skip the margin coverage entirely; at container-depth
// partitions that is the overwhelming majority.
func (x *SpatialIndex) Insert(it Item) error {
	home, err := homeTrixel(it.Key, it.Pos, x.depth)
	if err != nil {
		return fmt.Errorf("hashm: item %d: %w", it.ID, err)
	}
	x.add(home, it)
	eg, ok := x.edges[home]
	if !ok {
		tri, err := htm.Vertices(home)
		if err != nil {
			return err
		}
		eg = partEdges{
			n0: tri.V[0].Cross(tri.V[1]).Normalize(),
			n1: tri.V[1].Cross(tri.V[2]).Normalize(),
			n2: tri.V[2].Cross(tri.V[0]).Normalize(),
		}
		x.edges[home] = eg
	}
	if it.Pos.Dot(eg.n0) >= x.sinR && it.Pos.Dot(eg.n1) >= x.sinR && it.Pos.Dot(eg.n2) >= x.sinR {
		return nil
	}
	cov, err := region.Cover(region.Circle(it.Pos, x.radius), x.depth)
	if err != nil {
		return err
	}
	seen := map[htm.ID]struct{}{home: {}}
	addTrixels := func(trixels []htm.ID) {
		for _, id := range trixels {
			lo, hi := id.RangeAtDepth(x.depth)
			if lo == htm.Invalid {
				continue
			}
			for b := lo; b <= hi; b++ {
				if _, dup := seen[b]; dup {
					continue
				}
				seen[b] = struct{}{}
				x.add(b, it)
			}
		}
	}
	addTrixels(cov.Full)
	addTrixels(cov.Partial)
	return nil
}

// Finish sorts every partition by z (sin declination), ties broken by row
// index so the index is deterministic regardless of build concurrency.
// Partitions sort in parallel across workers goroutines (0 = GOMAXPROCS).
func (x *SpatialIndex) Finish(workers int) {
	if x.finished {
		return
	}
	x.finished = true
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := make(chan *partition, len(x.parts))
	for _, p := range x.parts {
		work <- p
	}
	close(work)
	if workers > len(x.parts) {
		workers = len(x.parts)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				items := p.items
				sort.Slice(items, func(i, j int) bool {
					if items[i].Pos.Z != items[j].Pos.Z {
						return items[i].Pos.Z < items[j].Pos.Z
					}
					return items[i].Row < items[j].Row
				})
			}
		}()
	}
	wg.Wait()
}

// zBand returns the [zlo, zhi] range of z = sin(dec) that any point within
// radius of pos can occupy: the declination band of the zones algorithm.
// Poles and RA wraparound need no special casing — z is monotone in
// declination and independent of RA.
func (x *SpatialIndex) zBand(z float64) (zlo, zhi float64) {
	if z > 1 {
		z = 1
	} else if z < -1 {
		z = -1
	}
	dec := math.Asin(z)
	lo, hi := dec-x.radius, dec+x.radius
	if lo < -math.Pi/2 {
		lo = -math.Pi / 2
	}
	if hi > math.Pi/2 {
		hi = math.Pi / 2
	}
	return math.Sin(lo), math.Sin(hi)
}

// Probe emits every indexed item within radius of the probe item, identity
// pairs (it.ID == probe.ID) excluded, by scanning the home partition's
// declination band (probe.Row is not used). Margin replication on the build
// side guarantees each qualifying item appears in the probe's home
// partition exactly once. emit returning false stops the probe; Probe then
// reports false. Safe for concurrent use after Finish.
func (x *SpatialIndex) Probe(probe Item, emit func(it Item, dist float64) bool) (bool, error) {
	home, err := homeTrixel(probe.Key, probe.Pos, x.depth)
	if err != nil {
		return true, fmt.Errorf("hashm: probe %d: %w", probe.ID, err)
	}
	p := x.parts[home]
	if p == nil {
		return true, nil
	}
	zlo, zhi := x.zBand(probe.Pos.Z)
	items := p.items
	i := sort.Search(len(items), func(k int) bool { return items[k].Pos.Z >= zlo })
	for ; i < len(items) && items[i].Pos.Z <= zhi; i++ {
		it := items[i]
		if it.ID == probe.ID {
			continue // identity pair
		}
		if sphere.CosDist(probe.Pos, it.Pos) < x.cosMax {
			continue
		}
		if !emit(it, sphere.Dist(probe.Pos, it.Pos)) {
			return false, nil
		}
	}
	return true, nil
}

// JoinItems emits every (left, right) pair within radius radians, except
// identity pairs (same ObjID on both sides, which a same-table join would
// otherwise always produce at distance zero). The right side builds a
// partitioned index with margin replication; left items probe only their
// home partition, so each pair is discovered exactly once. Probes run in
// parallel across workers goroutines (0 = GOMAXPROCS); pairs return sorted
// by (left row, right row), deterministic regardless of worker count.
func JoinItems(left, right []Item, radius float64, workers int) ([]IndexPair, error) {
	idx, err := NewSpatialIndex(radius, PartitionDepth(5, radius))
	if err != nil {
		return nil, err
	}
	if len(left) == 0 || len(right) == 0 {
		return nil, nil
	}
	for i := range right {
		if err := idx.Insert(right[i]); err != nil {
			return nil, err
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx.Finish(workers)

	chunk := (len(left) + workers - 1) / workers
	outs := make([][]IndexPair, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if lo >= len(left) {
			break
		}
		if hi > len(left) {
			hi = len(left)
		}
		wg.Add(1)
		go func(w int, probes []Item) {
			defer wg.Done()
			var local []IndexPair
			for _, l := range probes {
				_, err := idx.Probe(l, func(r Item, dist float64) bool {
					local = append(local, IndexPair{Left: l.Row, Right: r.Row, Dist: dist})
					return true
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
			outs[w] = local
		}(w, left[lo:hi])
	}
	wg.Wait()
	var out []IndexPair
	for w := range outs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		out = append(out, outs[w]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out, nil
}

// Package hashmachine implements the paper's hash machine: the second class of
// server, which "performs comparisons within data clusters".
//
// "The hash phase scans the entire dataset, selects a subset of the objects
// based on some predicate, and hashes each object to the appropriate
// buckets — a single object may go to several buckets (to allow objects
// near the edges of a region to go to all the neighboring regions as
// well). In a second phase all the objects in a bucket are compared to one
// another." The operation is the spatial analogue of a relational
// hash-join [DeWitt92], and parallelizes the same way: buckets are
// independent units of phase-2 work.
//
// Buckets are HTM trixels at a configurable depth. Margin replication is
// exact, not heuristic: an object is copied into every bucket whose trixel
// lies within the pair radius of the object, computed with the same
// region-coverage machinery queries use. Each emitted pair is produced
// exactly once (in the home bucket of its lower-ID member).
package hashmachine

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

// Config tunes the machine.
type Config struct {
	// BucketDepth is the HTM depth of hash buckets. Deeper buckets mean
	// more, smaller phase-2 units; the bucket size should comfortably
	// exceed the pair radius. Default 7 (~25 arcmin trixels).
	BucketDepth int
	// PairRadius is the maximum pair separation in radians; it also sets
	// the margin width for edge replication.
	PairRadius float64
	// Workers bounds phase-2 parallelism. Default GOMAXPROCS.
	Workers int
}

func (c Config) bucketDepth() int {
	if c.BucketDepth > 0 {
		return c.BucketDepth
	}
	return 7
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Entry is one object in a bucket. Home marks the single bucket that owns
// the object; margin copies carry Home = false.
type Entry struct {
	Tag  catalog.Tag
	Home bool
}

// Buckets is the phase-1 output: bucket trixel → member entries.
type Buckets map[htm.ID][]Entry

// Hash runs phase 1 over a slice of tag objects. The filter (nil = all)
// is the paper's "selects a subset of the objects based on some
// predicate". Each object lands in its home bucket and is replicated into
// every bucket whose trixel is within PairRadius.
func Hash(tags []catalog.Tag, cfg Config, filter func(*catalog.Tag) bool) (Buckets, error) {
	if cfg.PairRadius <= 0 {
		return nil, fmt.Errorf("hashm: PairRadius must be positive")
	}
	depth := cfg.bucketDepth()
	buckets := make(Buckets)
	// Cached inward edge normals per bucket: an object whose distance to
	// all three bucket edges exceeds PairRadius cannot spill into a
	// neighbor, so the (expensive) margin coverage is skipped. Distance to
	// a great circle is asin(p·n̂), so the test is three dot products
	// against sin(PairRadius).
	type bucketEdges struct{ n0, n1, n2 sphere.Vec3 }
	edges := make(map[htm.ID]bucketEdges)
	sinR := math.Sin(cfg.PairRadius)
	for i := range tags {
		t := &tags[i]
		if filter != nil && !filter(t) {
			continue
		}
		home := t.HTMID.AtDepth(depth)
		if home == htm.Invalid {
			return nil, fmt.Errorf("hashm: object %d has invalid HTM ID", t.ObjID)
		}
		buckets[home] = append(buckets[home], Entry{Tag: *t, Home: true})
		eg, ok := edges[home]
		if !ok {
			tri, err := htm.Vertices(home)
			if err != nil {
				return nil, err
			}
			eg = bucketEdges{
				n0: tri.V[0].Cross(tri.V[1]).Normalize(),
				n1: tri.V[1].Cross(tri.V[2]).Normalize(),
				n2: tri.V[2].Cross(tri.V[0]).Normalize(),
			}
			edges[home] = eg
		}
		pos := t.Pos()
		if pos.Dot(eg.n0) >= sinR && pos.Dot(eg.n1) >= sinR && pos.Dot(eg.n2) >= sinR {
			continue // interior object: no margin copies needed
		}
		// Margin replication: cover the cone of PairRadius around the
		// object; every other bucket it touches gets a copy.
		cov, err := region.Cover(region.Circle(pos, cfg.PairRadius), depth)
		if err != nil {
			return nil, err
		}
		seen := map[htm.ID]struct{}{home: {}}
		addTrixels := func(trixels []htm.ID) {
			for _, id := range trixels {
				// Coverage trixels are at depth ≤ the bucket depth; a
				// shallow "full" trixel expands to several buckets.
				lo, hi := id.RangeAtDepth(depth)
				if lo == htm.Invalid {
					continue
				}
				for b := lo; b <= hi; b++ {
					if _, dup := seen[b]; dup {
						continue
					}
					seen[b] = struct{}{}
					buckets[b] = append(buckets[b], Entry{Tag: *t, Home: false})
				}
			}
		}
		addTrixels(cov.Full)
		addTrixels(cov.Partial)
	}
	return buckets, nil
}

// TagScanner is the store surface HashStore needs: a full-scan source of
// encoded tag records. Both store.Store and store.Sharded satisfy it.
type TagScanner interface {
	Scan(fn func(rec []byte) error) error
}

// HashStore runs phase 1 directly over a tag store (the scan that feeds
// the hash machine).
func HashStore(st TagScanner, cfg Config, filter func(*catalog.Tag) bool) (Buckets, error) {
	var tags []catalog.Tag
	var t catalog.Tag
	err := st.Scan(func(rec []byte) error {
		if err := t.Decode(rec); err != nil {
			return err
		}
		if filter == nil || filter(&t) {
			tags = append(tags, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Hash(tags, cfg, nil)
}

// Pair is one emitted object pair, ordered A.ObjID < B.ObjID.
type Pair struct {
	A, B catalog.Tag
	Dist float64 // angular separation, radians
}

// Pairs runs phase 2: within every bucket, all entries are compared
// pairwise; pairs within PairRadius that satisfy pred (nil = all) are
// emitted exactly once. Buckets are processed in parallel by cfg.Workers
// workers.
func Pairs(buckets Buckets, cfg Config, pred func(a, b *catalog.Tag) bool) ([]Pair, error) {
	if cfg.PairRadius <= 0 {
		return nil, fmt.Errorf("hashm: PairRadius must be positive")
	}
	ids := make([]htm.ID, 0, len(buckets))
	for id := range buckets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	cosMax := math.Cos(cfg.PairRadius)
	work := make(chan htm.ID, len(ids))
	for _, id := range ids {
		work <- id
	}
	close(work)

	var mu sync.Mutex
	var out []Pair
	var wg sync.WaitGroup
	nw := cfg.workers()
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			var local []Pair
			for id := range work {
				entries := buckets[id]
				for i := 0; i < len(entries); i++ {
					a := &entries[i]
					for j := i + 1; j < len(entries); j++ {
						b := &entries[j]
						lo, hi := a, b
						if lo.Tag.ObjID > hi.Tag.ObjID {
							lo, hi = hi, lo
						}
						if lo.Tag.ObjID == hi.Tag.ObjID {
							continue // object meeting its own margin copy
						}
						// Exactly-once rule: only the home bucket of the
						// lower-ID member emits the pair.
						if !lo.Home {
							continue
						}
						aPos := sphere.Vec3{X: lo.Tag.X, Y: lo.Tag.Y, Z: lo.Tag.Z}
						bPos := sphere.Vec3{X: hi.Tag.X, Y: hi.Tag.Y, Z: hi.Tag.Z}
						if sphere.CosDist(aPos, bPos) < cosMax {
							continue
						}
						if pred != nil && !pred(&lo.Tag, &hi.Tag) {
							continue
						}
						local = append(local, Pair{
							A: lo.Tag, B: hi.Tag,
							Dist: sphere.Dist(aPos, bPos),
						})
					}
				}
			}
			if len(local) > 0 {
				mu.Lock()
				out = append(out, local...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.ObjID != out[j].A.ObjID {
			return out[i].A.ObjID < out[j].A.ObjID
		}
		return out[i].B.ObjID < out[j].B.ObjID
	})
	return out, nil
}

// NaivePairs is the all-pairs baseline: O(n²) over the filtered objects.
// It exists to verify the hash machine's completeness and to quantify the
// speedup (experiment E9).
func NaivePairs(tags []catalog.Tag, cfg Config, filter func(*catalog.Tag) bool, pred func(a, b *catalog.Tag) bool) []Pair {
	var kept []catalog.Tag
	for i := range tags {
		if filter == nil || filter(&tags[i]) {
			kept = append(kept, tags[i])
		}
	}
	cosMax := math.Cos(cfg.PairRadius)
	var out []Pair
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			a, b := &kept[i], &kept[j]
			if a.ObjID > b.ObjID {
				a, b = b, a
			}
			aPos := sphere.Vec3{X: a.X, Y: a.Y, Z: a.Z}
			bPos := sphere.Vec3{X: b.X, Y: b.Y, Z: b.Z}
			if sphere.CosDist(aPos, bPos) < cosMax {
				continue
			}
			if pred != nil && !pred(a, b) {
				continue
			}
			out = append(out, Pair{A: *a, B: *b, Dist: sphere.Dist(aPos, bPos)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.ObjID != out[j].A.ObjID {
			return out[i].A.ObjID < out[j].A.ObjID
		}
		return out[i].B.ObjID < out[j].B.ObjID
	})
	return out
}

// ColorMatch returns the paper's gravitational-lens predicate: "objects
// within 10 arcsec of each other which have identical colors, but may have
// a different brightness". Colors (adjacent band differences) must agree
// within tol magnitudes; total brightness is free.
func ColorMatch(tol float64) func(a, b *catalog.Tag) bool {
	return func(a, b *catalog.Tag) bool {
		for band := 0; band < catalog.NumBands-1; band++ {
			ca := a.Mag[band] - a.Mag[band+1]
			cb := b.Mag[band] - b.Mag[band+1]
			if math.Abs(float64(ca-cb)) > tol {
				return false
			}
		}
		return true
	}
}

// Package core assembles the paper's systems into the Science Archive's
// public API: one Archive value owns the container-clustered stores (full
// photometric table, tag vertical partition, spectroscopic table) and the
// parallel query engine with its HTM index. Its mining methods (lens
// candidates, groups, cross-identification, sampling, the scan machine and
// fiber tiling) run the paper's simulated machinery from internal/paper and
// internal/tiling, which only core and a few other packages may import.
//
// A downstream user needs only this package: create or open an archive,
// load survey chunks, and query or mine it.
//
//	a, _ := core.Create("", core.Options{})
//	chunk, _ := skygen.GenerateChunk(skygen.Default(1, 100000), 0, 1)
//	a.LoadChunk(chunk)
//	rows, _ := a.Query(ctx, "SELECT objid, ra, dec FROM tag WHERE r < 20")
package core

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"sdss/internal/archive"
	"sdss/internal/catalog"
	"sdss/internal/htm"
	"sdss/internal/load"
	"sdss/internal/paper/cluster"
	"sdss/internal/paper/hashmachine"
	"sdss/internal/paper/sample"
	"sdss/internal/paper/scan"
	"sdss/internal/qe"
	"sdss/internal/query"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
	"sdss/internal/store"
	"sdss/internal/tiling"
)

// Options configures an archive.
type Options struct {
	// ContainerDepth is the HTM depth of clustering units (default 5).
	ContainerDepth int
	// CoverDepth is the HTM depth for query coverage. 0 means per table:
	// each scan covers only as deep as its store's record density can use,
	// at most qe.DefaultCoverDepth (10).
	CoverDepth int
	// Workers is each scan's parallelism: the goroutines a query's scan
	// runs its morsels on (default GOMAXPROCS). It bounds one scan, not
	// the archive; concurrent queries share GOMAXPROCS.
	Workers int
	// Shards splits every store into that many slices (default 1), each
	// independently persistable; a scan's morsels cover the containers of
	// every slice and its rows gather into one stream. A persisted archive
	// remembers its shard count, so reopening with Shards 0 adopts it.
	Shards int
}

// Archive is an opened Science Archive.
type Archive struct {
	target *load.Target
	engine *qe.Engine
	dir    string
}

// Create opens (or creates) an archive rooted at dir; an empty dir keeps
// all data in memory.
func Create(dir string, opts Options) (*Archive, error) {
	tgt, err := load.NewTarget(dir, opts.ContainerDepth, opts.Shards)
	if err != nil {
		return nil, err
	}
	return &Archive{
		target: tgt,
		engine: &qe.Engine{
			Photo:      tgt.Photo,
			Tag:        tgt.Tag,
			Spec:       tgt.Spec,
			CoverDepth: opts.CoverDepth,
			Workers:    opts.Workers,
		},
		dir: dir,
	}, nil
}

// Engine exposes the query engine for advanced integration (the WWW tier,
// the benchmark harness).
func (a *Archive) Engine() *qe.Engine { return a.engine }

// PhotoStore exposes the full photometric store.
func (a *Archive) PhotoStore() *store.Sharded { return a.target.Photo }

// TagStore exposes the tag vertical partition.
func (a *Archive) TagStore() *store.Sharded { return a.target.Tag }

// SpecStore exposes the spectroscopic store.
func (a *Archive) SpecStore() *store.Sharded { return a.target.Spec }

// NumShards reports how many slices each store is split into.
func (a *Archive) NumShards() int { return a.target.Photo.NumShards() }

// LoadChunk ingests one survey chunk (photometric objects, tags, spectra).
func (a *Archive) LoadChunk(ch *skygen.Chunk) (load.Stats, error) {
	return a.target.LoadChunk(ch)
}

// LoadObjects ingests loose objects as one chunk.
func (a *Archive) LoadObjects(photo []catalog.PhotoObj, spec []catalog.SpecObj) (load.Stats, error) {
	return a.target.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec})
}

// Flush persists all stores (no-op for memory archives).
func (a *Archive) Flush() error { return a.target.Flush() }

// Sort orders every container by fine HTM ID, enabling the tightest
// in-container range pruning. Loads leave containers sorted already; call
// this after unclustered or repeated incremental loads.
func (a *Archive) Sort() { a.target.Sort() }

// QueryOptions bounds one archive query. The zero value is unbounded.
type QueryOptions struct {
	// Limit caps delivered rows (0 = unlimited); when it cuts the stream
	// short, Rows.Truncated reports true.
	Limit int
	// Offset skips that many rows before the first delivery.
	Offset int
	// Timeout aborts the query after a wall-clock duration.
	Timeout time.Duration
}

// Query parses and executes query text, streaming results.
func (a *Archive) Query(ctx context.Context, src string) (*qe.Rows, error) {
	return a.engine.ExecuteString(ctx, src)
}

// QueryRows is the typed, bounded query surface: it parses and executes
// query text, returning a stream whose Columns() carry the compiler's
// projection schema, honoring per-query limits and timeouts.
func (a *Archive) QueryRows(ctx context.Context, src string, opts QueryOptions) (*qe.Rows, error) {
	return a.engine.ExecuteStringOpts(ctx, src, qe.ExecOptions{
		Limit:   opts.Limit,
		Offset:  opts.Offset,
		Timeout: opts.Timeout,
	})
}

// Prepare compiles query text for repeated execution.
func (a *Archive) Prepare(src string) (*query.Prepared, error) {
	return query.PrepareString(src)
}

// Execute runs a prepared query.
func (a *Archive) Execute(ctx context.Context, prep *query.Prepared) (*qe.Rows, error) {
	return a.engine.Execute(ctx, prep)
}

// ExecuteOpts runs a prepared query under per-query bounds.
func (a *Archive) ExecuteOpts(ctx context.Context, prep *query.Prepared, opts QueryOptions) (*qe.Rows, error) {
	return a.engine.ExecuteOpts(ctx, prep, qe.ExecOptions{
		Limit:   opts.Limit,
		Offset:  opts.Offset,
		Timeout: opts.Timeout,
	})
}

// PlanQuery compiles query text through the cost-based physical planner:
// the operator tree with chosen access paths (HTM coverage versus
// zone-pruned versus full scan), hash-join build sides, and cardinality
// estimates. Execute the plan with Engine().ExecutePlan, or read it with
// Describe/Text.
func (a *Archive) PlanQuery(src string) (*qe.ExecPlan, error) {
	prep, err := query.PrepareString(src)
	if err != nil {
		return nil, err
	}
	return a.engine.Plan(prep)
}

// Cone runs a cone search on a table, streaming the projected columns.
// cols is a comma-separated projection ("objid, ra, dec"); empty selects
// every attribute.
func (a *Archive) Cone(ctx context.Context, table query.Table, raDeg, decDeg, radiusArcmin float64, cols string, opts QueryOptions) (*qe.Rows, error) {
	if cols == "" {
		cols = "*"
	}
	q := fmt.Sprintf("SELECT %s FROM %s WHERE CIRCLE(%g, %g, %g)",
		cols, table, raDeg, decDeg, radiusArcmin)
	return a.QueryRows(ctx, q, opts)
}

// ConeSearch returns the tag objects within radiusArcmin of (ra, dec). The
// tags are rebuilt from the engine's projected columns — a single indexed
// scan, not the O(n) store rescan this used to do.
func (a *Archive) ConeSearch(ctx context.Context, raDeg, decDeg, radiusArcmin float64) ([]catalog.Tag, error) {
	q := fmt.Sprintf(
		"SELECT htmid, cx, cy, cz, u, g, r, i, z, size, class FROM tag WHERE CIRCLE(%g, %g, %g)",
		raDeg, decDeg, radiusArcmin)
	rows, err := a.engine.ExecuteString(ctx, q)
	if err != nil {
		return nil, err
	}
	res, err := rows.Collect()
	if err != nil {
		return nil, err
	}
	out := make([]catalog.Tag, len(res))
	for i, r := range res {
		v := r.Values
		out[i] = catalog.Tag{
			ObjID: r.ObjID,
			HTMID: htm.ID(v[0]),
			X:     v[1], Y: v[2], Z: v[3],
			Mag: [catalog.NumBands]float32{
				float32(v[4]), float32(v[5]), float32(v[6]),
				float32(v[7]), float32(v[8]),
			},
			Size:  float32(v[9]),
			Class: catalog.Class(v[10]),
		}
	}
	return out, nil
}

// Tags materializes the whole tag table (the desktop-sized projection).
func (a *Archive) Tags() ([]catalog.Tag, error) {
	n := a.target.Tag.NumRecords()
	out := make([]catalog.Tag, 0, n)
	var t catalog.Tag
	err := a.target.Tag.Scan(func(rec []byte) error {
		if err := t.Decode(rec); err != nil {
			return err
		}
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LensCandidates mines the archive for gravitational-lens candidates: the
// paper's "objects within 10 arcsec of each other which have identical
// colors, but may have a different brightness", run on the hash machine.
func (a *Archive) LensCandidates(maxSepArcsec, colorTol float64) ([]hashmachine.Pair, error) {
	cfg := hashmachine.Config{PairRadius: maxSepArcsec * sphere.Arcsec}
	buckets, err := hashmachine.HashStore(a.target.Tag, cfg, nil)
	if err != nil {
		return nil, err
	}
	return hashmachine.Pairs(buckets, cfg, hashmachine.ColorMatch(colorTol))
}

// Groups runs friends-of-friends clustering at the given linking length.
func (a *Archive) Groups(linkArcsec float64, minMembers int) ([]hashmachine.Group, error) {
	tags, err := a.Tags()
	if err != nil {
		return nil, err
	}
	return hashmachine.FriendsOfFriends(tags, hashmachine.Config{PairRadius: linkArcsec * sphere.Arcsec}, minMembers)
}

// CrossMatch identifies an external catalog's sources against the archive.
func (a *Archive) CrossMatch(radio []skygen.RadioSource, radiusArcsec float64) ([]hashmachine.Match, error) {
	tags, err := a.Tags()
	if err != nil {
		return nil, err
	}
	return hashmachine.CrossMatch(tags, radio, radiusArcsec*sphere.Arcsec, hashmachine.Config{})
}

// Sample derives a new in-memory archive holding the given fraction of
// objects, consistently across all three tables — the desktop subset.
func (a *Archive) Sample(frac float64) (*Archive, error) {
	s, err := sample.New(frac)
	if err != nil {
		return nil, err
	}
	photo, err := s.SubsetSharded(a.target.Photo)
	if err != nil {
		return nil, err
	}
	tag, err := s.SubsetSharded(a.target.Tag)
	if err != nil {
		return nil, err
	}
	spec, err := s.SubsetSharded(a.target.Spec)
	if err != nil {
		return nil, err
	}
	tgt := &load.Target{Photo: photo, Tag: tag, Spec: spec}
	return &Archive{
		target: tgt,
		engine: &qe.Engine{
			Photo:      photo,
			Tag:        tag,
			Spec:       spec,
			CoverDepth: a.engine.CoverDepth,
			Workers:    a.engine.Workers,
		},
	}, nil
}

// ScanMachine builds a scan machine over the full photometric table,
// partitioned across a simulated cluster of n nodes, each throttled to
// bytesPerSec (0 = unthrottled).
func (a *Archive) ScanMachine(nodes int, bytesPerSec float64) (*scan.Machine, *cluster.Fabric, error) {
	fabric, err := cluster.New(nodes, bytesPerSec)
	if err != nil {
		return nil, nil, err
	}
	return scan.New(a.target.Photo, fabric), fabric, nil
}

// WWW returns the public HTTP tier over this archive.
func (a *Archive) WWW() http.Handler {
	return archive.NewWWW(a.engine).Handler()
}

// PlanTiles runs the spectroscopic tiling optimizer over the archive's
// spectroscopic targets: overlapping 3° tiles placed to maximize overlaps
// at areas of highest target density, 640 fibers each.
func (a *Archive) PlanTiles(opts tiling.Options) (*tiling.Result, error) {
	var targets []tiling.Target
	var s catalog.SpecObj
	err := a.target.Spec.Scan(func(rec []byte) error {
		if err := s.Decode(rec); err != nil {
			return err
		}
		pos, err := htm.Center(s.HTMID)
		if err != nil {
			return err
		}
		targets = append(targets, tiling.Target{ID: uint64(s.ObjID), Pos: pos})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tiling.Plan(targets, opts)
}

// Summary reports the archive's holdings.
type Summary struct {
	PhotoObjects int64
	TagObjects   int64
	Spectra      int64
	Containers   int
	Shards       int
	PhotoBytes   int64
	TagBytes     int64
	SpecBytes    int64
	// ZoneMapBytes is the resident footprint of the per-container
	// min/max attribute statistics across all stores and slices.
	ZoneMapBytes int64
	// ColBlkEncodedBytes is the compressed column-block footprint across
	// all stores and slices; ColBlkRawBytes is the raw footprint of the
	// columns the resident slabs cover. Their ratio is the archive's
	// effective columnar compression.
	ColBlkEncodedBytes int64
	ColBlkRawBytes     int64
}

// Stats summarizes the archive.
func (a *Archive) Stats() Summary {
	var enc, raw int64
	for _, st := range []*store.Sharded{a.target.Photo, a.target.Tag, a.target.Spec} {
		e, r := st.ColBlkBytes()
		enc += e
		raw += r
	}
	return Summary{
		Shards:             a.target.Photo.NumShards(),
		PhotoObjects:       a.target.Photo.NumRecords(),
		TagObjects:         a.target.Tag.NumRecords(),
		Spectra:            a.target.Spec.NumRecords(),
		Containers:         a.target.Photo.NumContainers(),
		PhotoBytes:         a.target.Photo.Bytes(),
		TagBytes:           a.target.Tag.Bytes(),
		SpecBytes:          a.target.Spec.Bytes(),
		ZoneMapBytes:       a.target.Photo.ZoneBytes() + a.target.Tag.ZoneBytes() + a.target.Spec.ZoneBytes(),
		ColBlkEncodedBytes: enc,
		ColBlkRawBytes:     raw,
	}
}

// Package store implements the Science Archive's container-clustered object
// store — the role Objectivity/DB plays in the paper's architecture.
//
// Objects are quantized into containers keyed by a coarse HTM trixel, so
// "each container has objects of similar properties ... from the same region
// of the sky. If the containers are stored as clusters, data locality will
// be very high — if an object satisfies a query, it is likely that some of
// the object's friends will as well."
//
// Containers are the clustering units of the loading pipeline: a bulk load
// groups incoming objects by container first and then writes each container
// exactly once ("our load design minimizes disk accesses, touching each
// clustering unit at most once during a load"); the Touches counter makes
// that property measurable.
//
// Records are opaque fixed-size byte strings whose HTM index key (a depth-20
// trixel ID) is embedded at a fixed offset, which lets the store sort and
// range-filter records without decoding them.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"sdss/internal/colblk"
	"sdss/internal/htm"
)

// DefaultContainerDepth is the HTM depth of container keys: depth 5 divides
// the sky into 8192 trixels of ~5 deg², balancing container count against
// skew for clustered catalogs (ablation A1, expt.AblationContainerDepth,
// sweeps the alternatives).
const DefaultContainerDepth = 5

// Options configures a store.
type Options struct {
	// Dir is the persistence directory; empty means memory-only.
	Dir string
	// ContainerDepth is the HTM depth of container keys.
	ContainerDepth int
	// RecordSize is the fixed encoded record length in bytes.
	RecordSize int
	// KeyOffset is the byte offset of the little-endian uint64 HTM ID
	// within each record.
	KeyOffset int
	// ZoneAttrs is the number of per-record attributes tracked by zone
	// maps (0 disables zoning).
	ZoneAttrs int
	// ZoneValues extracts one record's attribute values into out (length
	// ZoneAttrs). It must be safe for concurrent use: shard slices fold
	// zones in parallel during bulk loads.
	ZoneValues func(rec []byte, out []float64)
	// Columns describes the records' column layout for compressed
	// column-block sidecars (nil disables them). Column indexes align with
	// the same attribute IDs ZoneValues emits.
	Columns *colblk.Spec
}

// Record is one object headed for the store.
type Record struct {
	HTMID htm.ID // fine (IndexDepth) trixel of the object
	Data  []byte // encoded record, exactly RecordSize bytes
}

// Container is one clustering unit: the encoded records of all objects
// within one coarse trixel, kept sorted by their fine HTM ID so that range
// scans within the container are contiguous.
type Container struct {
	ID     htm.ID // trixel at the store's ContainerDepth
	data   []byte
	count  int
	sorted bool
	dirty  bool
	// zone holds the container's per-attribute min/max statistics; nil or
	// stale (zone.count != count) until built.
	zone *zoneMap
	// slab holds the container's compressed column blocks; nil or stale
	// (slab.N != count) until built. Sorting drops it — a slab encodes a
	// specific record order.
	slab *colblk.Slab
}

// Count returns the number of records in the container.
func (c *Container) Count() int { return c.count }

// Bytes returns the container payload size.
func (c *Container) Bytes() int { return len(c.data) }

// Store is a container-clustered record store. It is safe for concurrent
// use; bulk loads take the write lock, scans the read lock.
type Store struct {
	opts Options

	mu         sync.RWMutex
	containers map[htm.ID]*Container
	order      []htm.ID // sorted container IDs, rebuilt lazily
	orderOK    bool
	touches    int64
	records    int64
	// slabEncBytes/slabRawBytes aggregate the encoded and raw footprints of
	// every attached slab, maintained by setSlab so that ColBlkBytes is
	// O(1) — the planner consults the ratio on every scan estimate.
	slabEncBytes int64
	slabRawBytes int64
}

// Open creates or opens a store. If opts.Dir is non-empty and contains
// container files from a previous session, they are loaded.
func Open(opts Options) (*Store, error) {
	if opts.ContainerDepth <= 0 {
		opts.ContainerDepth = DefaultContainerDepth
	}
	if opts.ContainerDepth > htm.MaxDepth {
		return nil, fmt.Errorf("store: container depth %d exceeds max %d", opts.ContainerDepth, htm.MaxDepth)
	}
	if opts.RecordSize <= 0 {
		return nil, errors.New("store: RecordSize must be positive")
	}
	if opts.KeyOffset < 0 || opts.KeyOffset+8 > opts.RecordSize {
		return nil, fmt.Errorf("store: KeyOffset %d outside record of %d bytes", opts.KeyOffset, opts.RecordSize)
	}
	s := &Store{opts: opts, containers: make(map[htm.ID]*Container)}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", opts.Dir, err)
		}
		if err := s.loadDir(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Options returns the store's configuration.
func (s *Store) Options() Options { return s.opts }

// ContainerDepth returns the depth of container keys.
func (s *Store) ContainerDepth() int { return s.opts.ContainerDepth }

// key reads the embedded HTM key of an encoded record.
func (s *Store) key(rec []byte) htm.ID {
	return htm.ID(binary.LittleEndian.Uint64(rec[s.opts.KeyOffset:]))
}

// BulkLoad inserts records grouped by container, touching each container at
// most once: the paper's two-phase load. Phase 1 (done by the caller or
// here) groups records by their coarse trixel; phase 2 appends each group in
// a single operation. Records must be exactly RecordSize bytes.
func (s *Store) BulkLoad(recs []Record) error {
	groups := make(map[htm.ID][]Record)
	for _, r := range recs {
		if len(r.Data) != s.opts.RecordSize {
			return fmt.Errorf("store: record of %d bytes, want %d", len(r.Data), s.opts.RecordSize)
		}
		cid := r.HTMID.AtDepth(s.opts.ContainerDepth)
		if cid == htm.Invalid {
			return fmt.Errorf("store: record with invalid HTM ID %#x", uint64(r.HTMID))
		}
		groups[cid] = append(groups[cid], r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var zoneScratch []float64
	if s.zoneEnabled() {
		zoneScratch = make([]float64, s.opts.ZoneAttrs)
	}
	for cid, group := range groups {
		c := s.containers[cid]
		if c == nil {
			c = &Container{ID: cid, sorted: true}
			s.containers[cid] = c
			s.orderOK = false
		}
		// One touch per container per load.
		s.touches++
		// Sort the incoming group and merge-append; if the container tail
		// is still ahead of the group head the container stays sorted.
		sort.Slice(group, func(i, j int) bool { return group[i].HTMID < group[j].HTMID })
		if c.count > 0 && c.sorted {
			lastKey := s.key(c.data[(c.count-1)*s.opts.RecordSize:])
			if group[0].HTMID < lastKey {
				c.sorted = false
			}
		}
		for _, r := range group {
			c.data = append(c.data, r.Data...)
		}
		c.count += len(group)
		c.dirty = true
		s.records += int64(len(group))
		// Zone maps only widen under appends, so fold the new records in
		// incrementally — the zone stays fresh without a rebuild.
		if zoneScratch != nil {
			s.zoneFold(c, group, zoneScratch)
		}
	}
	return nil
}

// ensureSorted sorts a container's records by embedded key in place.
// Callers hold the write lock or have exclusive access.
func (s *Store) ensureSorted(c *Container) {
	if c.sorted {
		return
	}
	rs := s.opts.RecordSize
	// Reloaded containers arrive with sorted unknown (false); most were
	// flushed sorted. Confirming order with one linear pass avoids an
	// unstable re-sort, which could permute equal keys and desync a
	// persisted column slab from the record order it encoded.
	ordered := true
	for i := 1; i < c.count; i++ {
		if s.key(c.data[i*rs:]) < s.key(c.data[(i-1)*rs:]) {
			ordered = false
			break
		}
	}
	if ordered {
		c.sorted = true
		return
	}
	idx := make([]int, c.count)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return s.key(c.data[idx[a]*rs:]) < s.key(c.data[idx[b]*rs:])
	})
	sorted := make([]byte, len(c.data))
	for out, in := range idx {
		copy(sorted[out*rs:(out+1)*rs], c.data[in*rs:(in+1)*rs])
	}
	c.data = sorted
	c.sorted = true
	c.dirty = true
	// The permutation invalidated any column slab built over the old order.
	s.setSlab(c, nil)
}

// Sort ensures every container's records are ordered by fine HTM ID, and
// brings every zone map up to date (sorting permutes records but never
// changes the value set, so fresh zones stay valid).
func (s *Store) Sort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.containers {
		s.ensureSorted(c)
		s.ensureZone(c)
	}
}

// containerOrder returns sorted container IDs, rebuilding the cache if
// needed. Callers must hold at least the read lock; rebuilding upgrades
// atomically under the write lock.
func (s *Store) containerOrder() []htm.ID {
	if s.orderOK {
		return s.order
	}
	ids := make([]htm.ID, 0, len(s.containers))
	for id := range s.containers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s.order = ids
	s.orderOK = true
	return ids
}

// Containers returns the container IDs in sorted order.
func (s *Store) Containers() []htm.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]htm.ID(nil), s.containerOrder()...)
}

// NumContainers returns the number of clustering units.
func (s *Store) NumContainers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.containers)
}

// NumRecords returns the number of stored records.
func (s *Store) NumRecords() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.records
}

// Bytes returns the total payload size.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, c := range s.containers {
		n += int64(len(c.data))
	}
	return n
}

// Touches returns the cumulative number of container touches performed by
// bulk loads — the metric of experiment E11.
func (s *Store) Touches() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.touches
}

// ResetTouches zeroes the touch counter (between experiment phases).
func (s *Store) ResetTouches() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touches = 0
}

// Scan streams every record (coverage == nil), or only records in
// containers overlapping the coverage, in container-ID order. If fineFilter
// is true, records are additionally filtered by their fine HTM ID against
// the coverage, which requires sorted containers and prunes to exact trixel
// ranges. The callback receives the raw encoded record, valid only during
// the call.
func (s *Store) Scan(coverage *htm.RangeSet, fineFilter bool, fn func(rec []byte) error) error {
	if coverage != nil && coverage.Depth() > keyDepth {
		return fmt.Errorf("store: coverage depth %d deeper than record keys (%d)", coverage.Depth(), keyDepth)
	}
	s.mu.Lock()
	ids := append([]htm.ID(nil), s.containerOrder()...)
	if fineFilter {
		for _, id := range ids {
			s.ensureSorted(s.containers[id])
		}
	}
	s.mu.Unlock()

	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.opts.RecordSize
	for _, id := range ids {
		if coverage != nil && !coverage.OverlapsTrixel(id) {
			continue
		}
		c := s.containers[id]
		if c == nil {
			continue
		}
		// A container deeper than the coverage lies wholly inside the
		// covered trixel it overlaps: every record passes the fine filter.
		if coverage == nil || !fineFilter || id.Depth() > coverage.Depth() {
			for i := 0; i < c.count; i++ {
				if err := fn(c.data[i*rs : (i+1)*rs]); err != nil {
					return err
				}
			}
			continue
		}
		// Fine filtering: for each coverage range overlapping this
		// container, binary-search the sorted records.
		lo, hi := id.RangeAtDepth(coverage.Depth())
		for _, r := range coverage.Ranges() {
			rlo, rhi := r.Lo, r.Hi
			if rhi < lo || rlo > hi {
				continue
			}
			if rlo < lo {
				rlo = lo
			}
			if rhi > hi {
				rhi = hi
			}
			// Coverage depth may differ from the record key depth
			// (IndexDepth); project the range bounds to key depth.
			keyLo, _ := rlo.RangeAtDepth(keyDepth)
			_, keyHi := rhi.RangeAtDepth(keyDepth)
			start := sort.Search(c.count, func(i int) bool {
				return s.key(c.data[i*rs:]) >= keyLo
			})
			for i := start; i < c.count; i++ {
				rec := c.data[i*rs : (i+1)*rs]
				if s.key(rec) > keyHi {
					break
				}
				if err := fn(rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// keyDepth is the depth of the HTM keys embedded in records.
const keyDepth = 20

// ScanContainers streams whole containers in ID order, the unit the scan
// machine and partition map work in.
func (s *Store) ScanContainers(fn func(id htm.ID, data []byte, count int) error) error {
	ids := s.Containers()
	for _, id := range ids {
		s.mu.RLock()
		c := s.containers[id]
		s.mu.RUnlock()
		if c == nil {
			continue
		}
		if err := fn(id, c.data, c.count); err != nil {
			return err
		}
	}
	return nil
}

// Container returns one container's raw data (nil if absent).
func (s *Store) Container(id htm.ID) *Container {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.containers[id]
}

// ForEachInContainer streams the records of a single container. It is the
// unit of work the parallel query engine and the scan machine partition
// across workers and nodes.
func (s *Store) ForEachInContainer(id htm.ID, fn func(rec []byte) error) error {
	s.mu.RLock()
	c := s.containers[id]
	s.mu.RUnlock()
	if c == nil {
		return nil
	}
	rs := s.opts.RecordSize
	for i := 0; i < c.count; i++ {
		if err := fn(c.data[i*rs : (i+1)*rs]); err != nil {
			return err
		}
	}
	return nil
}

// KeyOf reads the embedded fine HTM ID of an encoded record without
// decoding it — the cheap prefilter spatial scans use before paying for a
// full decode.
func (s *Store) KeyOf(rec []byte) htm.ID { return s.key(rec) }

// Column-block sidecars: the compressed columnar representation of each
// container's records (package colblk), maintained beside the zone maps.
// Where zones let a scan skip whole containers, column blocks change what a
// surviving container costs: the scan path runs its compare kernels over
// per-column key vectors and materializes only selected records, streaming
// the encoded bytes instead of the raw fixed-offset payload.
//
// Lifecycle mirrors zone.go exactly: slabs build lazily per container
// (freshness = slab record count versus container count), persist in one
// versioned COLBLK file per store directory written atomically at Flush,
// reload tolerantly (any mismatch — magic, version, spec fingerprint,
// per-container counts, structural validation — just drops the affected
// slabs to rebuild from the records), and CheckColBlk sweeps the full
// decode-equals-raw invariant on demand.
package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"sdss/internal/colblk"
	"sdss/internal/htm"
)

// colBlkEnabled reports whether this store maintains column blocks.
func (s *Store) colBlkEnabled() bool { return s.opts.Columns != nil }

// ColBlkEnabled reports whether this store maintains column blocks — the
// planner requires them of every store it scans.
func (s *Store) ColBlkEnabled() bool { return s.colBlkEnabled() }

// setSlab attaches (or detaches, sl == nil) a container's slab, keeping the
// store-wide encoded/raw byte aggregates current. Every slab assignment goes
// through here. Callers hold the write lock (or own the store exclusively,
// as during Open).
func (s *Store) setSlab(c *Container, sl *colblk.Slab) {
	if old := c.slab; old != nil {
		s.slabEncBytes -= int64(old.EncodedBytes())
		s.slabRawBytes -= int64(old.RawBytes())
	}
	if sl != nil {
		s.slabEncBytes += int64(sl.EncodedBytes())
		s.slabRawBytes += int64(sl.RawBytes())
	}
	c.slab = sl
}

// ensureColBlk (re)builds a container's slab when missing or stale. Callers
// hold the write lock.
func (s *Store) ensureColBlk(c *Container) {
	if !s.colBlkEnabled() || (c.slab != nil && c.slab.N == c.count) {
		return
	}
	s.setSlab(c, s.opts.Columns.Encode(c.data, c.count, s.opts.RecordSize, false))
}

// ColumnData snapshots one container for the query engine's scan: its raw
// payload, record count, and fresh column slab (built on demand). The slab
// is nil when column blocks are disabled or the container is absent; the
// returned slices must be treated as read-only (appends and sorts replace,
// never mutate, container buffers — the same contract ForEachInContainer
// relies on).
func (s *Store) ColumnData(id htm.ID) (data []byte, count int, slab *colblk.Slab) {
	s.mu.RLock()
	c := s.containers[id]
	if c == nil {
		s.mu.RUnlock()
		return nil, 0, nil
	}
	if sl := c.slab; sl != nil && sl.N == c.count {
		data, count, slab = c.data, c.count, sl
		s.mu.RUnlock()
		return data, count, slab
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	c = s.containers[id]
	if c == nil {
		return nil, 0, nil
	}
	s.ensureColBlk(c)
	return c.data, c.count, c.slab
}

// BuildColBlks ensures every container has a fresh slab (Flush calls it; it
// is also the warm-up a benchmark times).
func (s *Store) BuildColBlks() {
	if !s.colBlkEnabled() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.containers {
		s.ensureColBlk(c)
	}
}

// RebuildColBlks drops and rebuilds every slab from scratch — the measured
// cost of a full encode over the store's records.
func (s *Store) RebuildColBlks() {
	if !s.colBlkEnabled() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.containers {
		s.setSlab(c, nil)
		s.ensureColBlk(c)
	}
}

// CheckColBlk verifies a container's slab decodes to exactly the keys of
// its raw records, building it first if needed — the COLBLK analogue of
// CheckZone, used by validation sweeps and the property tests. Absent
// containers and disabled column blocks check vacuously.
func (s *Store) CheckColBlk(id htm.ID) error {
	if !s.colBlkEnabled() {
		return nil
	}
	data, count, slab := s.ColumnData(id)
	if slab == nil {
		return nil
	}
	return slab.Check(data, count, s.opts.RecordSize)
}

// ColBlkBytes reports the encoded footprint of all attached slabs against
// the raw footprint of the columns they cover — the compressed-versus-raw
// ratio /v1/status, the load summary, and the planner's bytes-scanned cost
// model consult. The totals are aggregates maintained as slabs attach and
// detach (O(1) to read — planLeaf calls this on every scan estimate);
// containers without slabs contribute to neither side, and a slab gone
// stale after appends is counted until its rebuild replaces it.
func (s *Store) ColBlkBytes() (encoded, raw int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slabEncBytes, s.slabRawBytes
}

// Column-block persistence: one COLBLK file per store directory, in the
// sidecar format owned by package colblk (colblk.AppendFileHeader and
// friends). The header records the format version and the column spec's
// fingerprint; the spec itself is code, so a fingerprint mismatch (schema
// change, new predictor wiring) silently invalidates the file and slabs
// rebuild from the records.
const colBlkFileName = "COLBLK"

// flushColBlks writes the COLBLK file. Callers hold the write lock and have
// ensured slabs are fresh.
func (s *Store) flushColBlks() error {
	if s.opts.Dir == "" || !s.colBlkEnabled() {
		return nil
	}
	path := filepath.Join(s.opts.Dir, colBlkFileName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(colblk.AppendFileHeader(nil, s.opts.Columns.Fingerprint(), len(s.containers))); err != nil {
		f.Close()
		return err
	}
	var slabBuf, entBuf []byte
	for _, id := range s.containerOrder() {
		c := s.containers[id]
		sl := c.slab
		if sl == nil || sl.N != c.count {
			// Should not happen (callers ensure freshness); skip rather than
			// persist a stale slab.
			continue
		}
		slabBuf = sl.AppendTo(slabBuf[:0])
		entBuf = colblk.AppendFileEntry(entBuf[:0], uint64(id), sl.N, slabBuf)
		if _, err := w.Write(entBuf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: committing %s: %w", path, err)
	}
	return nil
}

// loadColBlks attaches persisted slabs to loaded containers. Any
// irregularity — missing file, version or fingerprint mismatch, stale
// per-container counts, structural corruption — is not an error: the
// affected slabs simply rebuild from the records on first use.
func (s *Store) loadColBlks() {
	if s.opts.Dir == "" || !s.colBlkEnabled() {
		return
	}
	b, err := os.ReadFile(filepath.Join(s.opts.Dir, colBlkFileName))
	if err != nil {
		return
	}
	count, off, ok := colblk.ParseFileHeader(b, s.opts.Columns.Fingerprint())
	if !ok {
		return
	}
	for n := 0; n < count; n++ {
		// Structural validation catches truncation and format drift; the
		// entry checksum catches bit flips, which would otherwise decode to
		// plausible-but-wrong keys and silently corrupt query results.
		ent, consumed, ok := colblk.ParseFileEntry(b[off:])
		if !ok {
			return
		}
		sl, slabUsed, err := colblk.DecodeSlab(s.opts.Columns, ent.Records, ent.Slab)
		if err != nil || slabUsed != len(ent.Slab) {
			return
		}
		off += consumed
		c := s.containers[htm.ID(ent.ID)]
		if c != nil && c.count == ent.Records {
			s.setSlab(c, sl)
		}
	}
}

// --- Sharded delegations ---

// ColumnData snapshots a container from its owning slice.
func (s *Sharded) ColumnData(id htm.ID) (data []byte, count int, slab *colblk.Slab) {
	return s.shards[s.ShardFor(id)].ColumnData(id)
}

// ColBlkEnabled reports whether the slices maintain column blocks.
func (s *Sharded) ColBlkEnabled() bool {
	return len(s.shards) > 0 && s.shards[0].ColBlkEnabled()
}

// BuildColBlks ensures every slice's slabs are fresh.
func (s *Sharded) BuildColBlks() {
	for _, sh := range s.shards {
		sh.BuildColBlks()
	}
}

// RebuildColBlks drops and rebuilds every slice's slabs from scratch.
func (s *Sharded) RebuildColBlks() {
	for _, sh := range s.shards {
		sh.RebuildColBlks()
	}
}

// CheckColBlk verifies a container's slab on its owning slice.
func (s *Sharded) CheckColBlk(id htm.ID) error {
	return s.shards[s.ShardFor(id)].CheckColBlk(id)
}

// ColBlkBytes sums the encoded-versus-raw footprint across all slices.
func (s *Sharded) ColBlkBytes() (encoded, raw int64) {
	for _, sh := range s.shards {
		e, r := sh.ColBlkBytes()
		encoded += e
		raw += r
	}
	return encoded, raw
}

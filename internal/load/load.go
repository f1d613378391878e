// Package load implements the Science Archive's data-loading pipeline.
//
// The Operational Archive exports calibrated data in coherent chunks (the
// segments of sky scanned in one night). Loading follows the paper's
// two-phase design: "The chunk data is first examined to construct an
// index. This determines where each object will be located and creates a
// list of databases and containers that are needed. Then data is inserted
// into the containers in a single pass over the data objects" — so each
// clustering unit is touched at most once per chunk, which is what keeps a
// ~20 GB/day ingest rate sustainable.
//
// Alongside the full photometric records the loader maintains the tag
// vertical partition and the spectroscopic table.
package load

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sdss/internal/catalog"
	"sdss/internal/fits"
	"sdss/internal/query"
	"sdss/internal/skygen"
	"sdss/internal/store"
)

// Target is the set of stores one archive instance loads into. Each store
// may be split into N shard slices; loads write every slice in parallel
// (store.Sharded.BulkLoad) while still touching each clustering unit at
// most once.
type Target struct {
	Photo *store.Sharded
	Tag   *store.Sharded
	Spec  *store.Sharded
}

// NewTarget creates (or reopens) the three stores under dir, each split
// into shards slices (<= 1 keeps the historical single-slice layout); an
// empty dir keeps everything in memory.
func NewTarget(dir string, containerDepth, shards int) (*Target, error) {
	sub := func(name string) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, name)
	}
	// Every store maintains zone maps over the query schema's attributes
	// (indexed by query.AttrID), so scans can prune containers on any
	// predicate bound, not just spatial coverage — and compressed column
	// blocks over the same attribute layout, which the query engine's one
	// scan path (the vectorized filter kernels) requires.
	photo, err := store.OpenSharded(store.Options{
		Dir: sub("photo"), ContainerDepth: containerDepth,
		RecordSize: catalog.PhotoObjSize, KeyOffset: 8,
		ZoneAttrs:  query.NumAttrs(query.TablePhoto),
		ZoneValues: query.ZoneValues(query.TablePhoto),
		Columns:    query.ColumnSpecs(query.TablePhoto),
	}, shards)
	if err != nil {
		return nil, fmt.Errorf("load: opening photo store: %w", err)
	}
	tag, err := store.OpenSharded(store.Options{
		Dir: sub("tag"), ContainerDepth: containerDepth,
		RecordSize: catalog.TagSize, KeyOffset: 8,
		ZoneAttrs:  query.NumAttrs(query.TableTag),
		ZoneValues: query.ZoneValues(query.TableTag),
		Columns:    query.ColumnSpecs(query.TableTag),
	}, shards)
	if err != nil {
		return nil, fmt.Errorf("load: opening tag store: %w", err)
	}
	spec, err := store.OpenSharded(store.Options{
		Dir: sub("spec"), ContainerDepth: containerDepth,
		RecordSize: catalog.SpecObjSize, KeyOffset: 8,
		ZoneAttrs:  query.NumAttrs(query.TableSpec),
		ZoneValues: query.ZoneValues(query.TableSpec),
		Columns:    query.ColumnSpecs(query.TableSpec),
	}, shards)
	if err != nil {
		return nil, fmt.Errorf("load: opening spec store: %w", err)
	}
	return &Target{Photo: photo, Tag: tag, Spec: spec}, nil
}

// Stats reports what one load did.
type Stats struct {
	PhotoObjects int
	TagObjects   int
	SpecObjects  int
	Containers   int64 // container touches across all three stores
	Bytes        int64
	Duration     time.Duration
}

// Rate returns the ingest rate in bytes per second.
func (s Stats) Rate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Duration.Seconds()
}

// LoadChunk ingests one survey chunk: photometric objects, their derived
// tag records, and any spectra.
func (t *Target) LoadChunk(ch *skygen.Chunk) (Stats, error) {
	start := time.Now()
	touchesBefore := t.Photo.Touches() + t.Tag.Touches() + t.Spec.Touches()

	// Phase 1: build the container index — encode every object and
	// determine its destination (store.BulkLoad groups by container).
	photoRecs := make([]store.Record, len(ch.Photo))
	tagRecs := make([]store.Record, len(ch.Photo))
	var nBytes int64
	for i := range ch.Photo {
		p := &ch.Photo[i]
		photoRecs[i] = store.Record{HTMID: p.HTMID, Data: p.AppendTo(nil)}
		tag := catalog.MakeTag(p)
		tagRecs[i] = store.Record{HTMID: tag.HTMID, Data: tag.AppendTo(nil)}
		nBytes += int64(catalog.PhotoObjSize + catalog.TagSize)
	}
	specRecs := make([]store.Record, len(ch.Spec))
	for i := range ch.Spec {
		s := &ch.Spec[i]
		specRecs[i] = store.Record{HTMID: s.HTMID, Data: s.AppendTo(nil)}
		nBytes += int64(catalog.SpecObjSize)
	}

	// Phase 2: single insertion pass per store, one touch per container.
	if err := t.Photo.BulkLoad(photoRecs); err != nil {
		return Stats{}, fmt.Errorf("load: photo: %w", err)
	}
	if err := t.Tag.BulkLoad(tagRecs); err != nil {
		return Stats{}, fmt.Errorf("load: tag: %w", err)
	}
	if len(specRecs) > 0 {
		if err := t.Spec.BulkLoad(specRecs); err != nil {
			return Stats{}, fmt.Errorf("load: spec: %w", err)
		}
	}
	return Stats{
		PhotoObjects: len(ch.Photo),
		TagObjects:   len(tagRecs),
		SpecObjects:  len(ch.Spec),
		Containers:   t.Photo.Touches() + t.Tag.Touches() + t.Spec.Touches() - touchesBefore,
		Bytes:        nBytes,
		Duration:     time.Since(start),
	}, nil
}

// LoadUnclustered inserts a chunk's photometric objects one record at a
// time, defeating the container grouping. It exists as the baseline of
// experiment E11 (clustered versus naive loading) and should never be used
// for real ingest.
func (t *Target) LoadUnclustered(ch *skygen.Chunk) (Stats, error) {
	start := time.Now()
	touchesBefore := t.Photo.Touches()
	var nBytes int64
	for i := range ch.Photo {
		p := &ch.Photo[i]
		rec := store.Record{HTMID: p.HTMID, Data: p.AppendTo(nil)}
		if err := t.Photo.BulkLoad([]store.Record{rec}); err != nil {
			return Stats{}, err
		}
		nBytes += int64(catalog.PhotoObjSize)
	}
	return Stats{
		PhotoObjects: len(ch.Photo),
		Containers:   t.Photo.Touches() - touchesBefore,
		Bytes:        nBytes,
		Duration:     time.Since(start),
	}, nil
}

// Flush persists all three stores.
func (t *Target) Flush() error {
	if err := t.Photo.Flush(); err != nil {
		return err
	}
	if err := t.Tag.Flush(); err != nil {
		return err
	}
	return t.Spec.Flush()
}

// Sort orders every container in all three stores by fine HTM ID.
func (t *Target) Sort() {
	t.Photo.Sort()
	t.Tag.Sort()
	t.Spec.Sort()
}

// The EXTNAMEs of the two HDU streams a chunk file may carry. Every packet
// in a chunk stream must name one of these; anything else is a format error
// (decoding an unknown table with the photo schema would produce garbage).
const (
	ExtPhoto = "PHOTOOBJ"
	ExtSpec  = "SPECOBJ"
)

// ChunkStats reports what ReadChunkFITS found in one chunk file, including
// non-fatal compatibility warnings callers can surface.
type ChunkStats struct {
	PhotoRows int
	SpecRows  int
	Packets   int
	// Version is 2 for multi-HDU files (a SPECOBJ stream is present, even
	// if empty) and 1 for legacy photo-only files.
	Version int
	// Warnings lists non-fatal findings — today only the legacy-file note
	// that no SPECOBJ HDU exists, so the archive gains no spectra. Returned
	// rather than logged so the silent-empty-join failure mode of v1 files
	// can never recur unnoticed.
	Warnings []string
}

// WriteChunkFITS serializes a chunk as a blocked FITS stream — the
// on-the-wire format between the Operational Archive and the Science
// Archive. The photometric table streams first (EXTNAME PHOTOOBJ), then the
// spectroscopic table (EXTNAME SPECOBJ). A chunk with no spectra still
// carries one empty SPECOBJ packet, so readers can distinguish "this night
// observed no spectra" from a legacy v1 photo-only file.
func WriteChunkFITS(w io.Writer, ch *skygen.Chunk, packetRows int) error {
	sw := fits.NewStreamWriter(w, ExtPhoto, fits.PhotoColumns(), packetRows)
	for i := range ch.Photo {
		if err := sw.WriteRow(fits.PhotoRow(&ch.Photo[i])); err != nil {
			return err
		}
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	ss := fits.NewStreamWriter(w, ExtSpec, fits.SpecColumns(), packetRows)
	for i := range ch.Spec {
		if err := ss.WriteRow(fits.SpecRow(&ch.Spec[i])); err != nil {
			return err
		}
	}
	if err := ss.Flush(); err != nil {
		return err
	}
	if ss.Packets() == 0 {
		empty := &fits.Table{Name: ExtSpec, Cols: fits.SpecColumns()}
		return empty.Write(w)
	}
	return nil
}

// WriteChunkFile writes one chunk to path as a multi-HDU FITS file.
func WriteChunkFile(path string, ch *skygen.Chunk, packetRows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChunkFITS(f, ch, packetRows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadChunkFile reads one chunk file from disk via ReadChunkFITS.
func ReadChunkFile(path string) (*skygen.Chunk, ChunkStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ChunkStats{}, err
	}
	defer f.Close()
	return ReadChunkFITS(f)
}

// ReadChunkFITS reads a blocked FITS chunk stream back into a full chunk,
// dispatching each packet by its EXTNAME: PHOTOOBJ packets decode as
// photometric objects, SPECOBJ packets as spectra, and any other table name
// is a descriptive error. Legacy v1 files (photo stream only) load cleanly;
// the missing SPECOBJ HDU is reported in ChunkStats.Warnings.
func ReadChunkFITS(r io.Reader) (*skygen.Chunk, ChunkStats, error) {
	sr := fits.NewStreamReader(r)
	ch := &skygen.Chunk{}
	var st ChunkStats
	sawSpec := false
	for {
		tab, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, st, err
		}
		st.Packets++
		switch tab.Name {
		case ExtPhoto:
			for _, row := range tab.Rows {
				p, err := fits.RowPhoto(row)
				if err != nil {
					return nil, st, fmt.Errorf("load: chunk packet %d (%s): %w", st.Packets, tab.Name, err)
				}
				ch.Photo = append(ch.Photo, p)
			}
		case ExtSpec:
			sawSpec = true
			for _, row := range tab.Rows {
				s, err := fits.RowSpec(row)
				if err != nil {
					return nil, st, fmt.Errorf("load: chunk packet %d (%s): %w", st.Packets, tab.Name, err)
				}
				ch.Spec = append(ch.Spec, s)
			}
		default:
			return nil, st, fmt.Errorf("load: chunk packet %d has unknown EXTNAME %q (want %q or %q)",
				st.Packets, tab.Name, ExtPhoto, ExtSpec)
		}
	}
	if st.Packets == 0 {
		// A real v1 file always carries at least one PHOTOOBJ packet; zero
		// packets means an empty or truncated-to-nothing file, and loading
		// it as "zero records" would be silent data loss.
		return nil, st, fmt.Errorf("load: chunk stream contains no packets (empty or truncated file)")
	}
	st.PhotoRows = len(ch.Photo)
	st.SpecRows = len(ch.Spec)
	if sawSpec {
		st.Version = 2
	} else {
		st.Version = 1
		st.Warnings = append(st.Warnings,
			"no SPECOBJ HDU: legacy v1 photo-only chunk; the archive gains no spectra from this file")
	}
	return ch, st, nil
}

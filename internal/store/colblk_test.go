package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"sdss/internal/colblk"
	"sdss/internal/htm"
)

// colBlkTestOptions extends the zone test layout (8-byte key + one f64
// value) with a column spec covering both fields.
func colBlkTestOptions(dir string) Options {
	o := zoneTestOptions(dir)
	o.Columns = colblk.MustSpec([]colblk.Column{
		{Name: "htmid", Offset: 0, Kind: colblk.KU64},
		{Name: "val", Offset: 8, Kind: colblk.KF64},
	})
	return o
}

func TestColBlkBuildAndCheck(t *testing.T) {
	s, err := Open(colBlkTestOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	ids := zoneTrixels(t, 2)
	recs := []Record{
		zoneTestRecord(ids[0], 3),
		zoneTestRecord(ids[0], -1),
		zoneTestRecord(ids[1], math.NaN()),
		zoneTestRecord(ids[1], 7),
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		cid := id.AtDepth(s.ContainerDepth())
		data, count, slab := s.ColumnData(cid)
		if slab == nil || slab.N != count || len(data) != count*s.opts.RecordSize {
			t.Fatalf("container %v: no fresh slab (count %d)", cid, count)
		}
		if err := s.CheckColBlk(cid); err != nil {
			t.Fatal(err)
		}
	}
	enc, raw := s.ColBlkBytes()
	if enc <= 0 || raw != 4*16 {
		t.Fatalf("ColBlkBytes = %d/%d, want positive/%d", enc, raw, 4*16)
	}
}

func TestColBlkStalenessAfterAppendAndSort(t *testing.T) {
	s, err := Open(colBlkTestOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	ids := zoneTrixels(t, 1)
	cid := ids[0].AtDepth(s.ContainerDepth())
	// Load out-of-order fine keys within one container so sorting permutes.
	fine := []htm.ID{ids[0] + 5, ids[0] + 1, ids[0] + 3}
	var recs []Record
	for i, f := range fine {
		recs = append(recs, zoneTestRecord(f, float64(i)))
	}
	if err := s.BulkLoad(recs[:2]); err != nil {
		t.Fatal(err)
	}
	_, _, slab1 := s.ColumnData(cid)
	if slab1 == nil || slab1.N != 2 {
		t.Fatal("no slab after first load")
	}
	// Appending staleness: a new record invalidates the slab until rebuilt.
	if err := s.BulkLoad(recs[2:]); err != nil {
		t.Fatal(err)
	}
	_, _, slab2 := s.ColumnData(cid)
	if slab2 == nil || slab2.N != 3 {
		t.Fatal("slab not rebuilt after append")
	}
	// Sorting permutes the records: the slab must rebuild over the new
	// order and still check clean.
	s.Sort()
	data, count, slab3 := s.ColumnData(cid)
	if slab3 == nil || slab3 == slab2 {
		t.Fatal("slab not rebuilt after sort")
	}
	if err := slab3.Check(data, count, s.opts.RecordSize); err != nil {
		t.Fatal(err)
	}
	// The decoded htmid column must now be ascending.
	r := colblk.NewReader()
	r.Reset(slab3)
	keys := r.Keys(0)
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("sorted container decoded out of order")
		}
	}
}

func TestColBlkPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(colBlkTestOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ids := zoneTrixels(t, 3)
	var recs []Record
	for i, id := range ids {
		recs = append(recs, zoneTestRecord(id, float64(i)*1.5), zoneTestRecord(id+1, math.NaN()))
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	s.Sort()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, colBlkFileName)); err != nil {
		t.Fatalf("no COLBLK file after flush: %v", err)
	}

	// Reopen: slabs attach from disk (no rebuild) and check clean.
	s2, err := Open(colBlkTestOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		cid := id.AtDepth(s2.ContainerDepth())
		s2.mu.RLock()
		attached := s2.containers[cid].slab != nil
		s2.mu.RUnlock()
		if !attached {
			t.Fatalf("container %v: persisted slab not attached on reopen", cid)
		}
		if err := s2.CheckColBlk(cid); err != nil {
			t.Fatal(err)
		}
	}

	// A corrupted COLBLK file must degrade to transparent rebuild, never an
	// open error.
	path := filepath.Join(dir, colBlkFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(colBlkTestOptions(dir))
	if err != nil {
		t.Fatalf("open with corrupt COLBLK: %v", err)
	}
	for _, id := range ids {
		if err := s3.CheckColBlk(id.AtDepth(s3.ContainerDepth())); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColBlkLegacyArchiveRebuilds(t *testing.T) {
	dir := t.TempDir()
	// Write an archive with column blocks disabled — a pre-COLBLK layout.
	legacy, err := Open(zoneTestOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ids := zoneTrixels(t, 2)
	if err := legacy.BulkLoad([]Record{
		zoneTestRecord(ids[0], 1), zoneTestRecord(ids[1], 2),
	}); err != nil {
		t.Fatal(err)
	}
	legacy.Sort()
	if err := legacy.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen with column blocks enabled: slabs build transparently.
	s, err := Open(colBlkTestOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		cid := id.AtDepth(s.ContainerDepth())
		_, count, slab := s.ColumnData(cid)
		if slab == nil || slab.N != count || count != 1 {
			t.Fatalf("container %v: legacy archive did not build slab", cid)
		}
		if err := s.CheckColBlk(cid); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColBlkRawModeAndBytes checks the encoded-versus-raw footprint the
// store aggregates: a clustered container compresses below its raw column
// bytes and still decodes to its records. Forced-raw encodings are
// package colblk's to test.
func TestColBlkRawModeAndBytes(t *testing.T) {
	s, err := Open(colBlkTestOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	ids := zoneTrixels(t, 1)
	var recs []Record
	for i := 0; i < 256; i++ {
		recs = append(recs, zoneTestRecord(ids[0]+htm.ID(i%7), 10+float64(i%5)))
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	s.BuildColBlks()
	enc, raw := s.ColBlkBytes()
	if enc >= raw {
		t.Fatalf("clustered container did not compress: %d encoded vs %d raw", enc, raw)
	}
	cid := ids[0].AtDepth(s.ContainerDepth())
	if _, _, slab := s.ColumnData(cid); int64(slab.EncodedBytes()) != enc || int64(slab.RawBytes()) != raw {
		t.Fatalf("store totals %d/%d, its one slab %d/%d", enc, raw, slab.EncodedBytes(), slab.RawBytes())
	}
	if err := s.CheckColBlk(cid); err != nil {
		t.Fatal(err)
	}
}

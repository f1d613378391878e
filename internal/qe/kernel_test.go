package qe

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/load"
	"sdss/internal/query"
	"sdss/internal/skygen"
	"sdss/internal/store"
)

// kernelPropertyQueries covers every kernel shape: exact key-range kernels
// (range, equality, dictionary), prefilter+residual (arithmetic, OR),
// negation with NaN admission, and predicates over every column kind the
// block layouts encode (f32 magnitudes, f64 ra/dec/mjd, u64 objid, int
// run/camcol/flags, dictionary class).
var kernelPropertyQueries = []string{
	"SELECT objid, r FROM tag WHERE r < 18",
	"SELECT objid, r FROM tag WHERE r >= 14 AND r <= 15",
	"SELECT objid FROM tag WHERE NOT (r < 20)",
	"SELECT objid FROM tag WHERE r < 15 OR r > 21",
	"SELECT objid FROM tag WHERE class = 'GALAXY' AND r < 20",
	"SELECT objid FROM tag WHERE class = 'QSO'",
	"SELECT objid FROM tag WHERE class = 'UNKNOWN'", // dictionary miss in most containers
	"SELECT objid FROM tag WHERE u - g > 1 AND r < 20",
	"SELECT objid, r FROM tag WHERE r < 20 ORDER BY r LIMIT 50",
	"SELECT COUNT(*) FROM tag WHERE r < 19",
	"SELECT objid, r FROM photoobj WHERE r < 18",
	"SELECT objid FROM photoobj WHERE run = 2 AND camcol = 3",
	"SELECT objid, mjd FROM photoobj WHERE mjd > 51000",
	"SELECT objid FROM photoobj WHERE flags = 0 AND r < 21",
	"SELECT objid, ra, dec FROM photoobj WHERE dec > 30 AND dec < 40",
	"SELECT objid FROM photoobj WHERE NOT (petrorad < 3)",
	"SELECT objid FROM specobj WHERE redshift > 0.5 AND sn > 10",
}

// TestKernelScanMatchesRowScan is the acceptance property: kernel-filtered
// scans return bit-identical results to the row-by-row reference
// (refCollect), across seeds, the full predicate grid, and 1-versus-8-shard
// layouts.
func TestKernelScanMatchesRowScan(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		for _, shards := range []int{1, 8} {
			e := testShardArchive(t, 6000, seed, shards)
			for _, q := range kernelPropertyQueries {
				got := mustCollect(t, e, q)
				want := refCollect(t, e, q)
				canonical(got)
				canonical(want)
				if err := sameResultsExact(got, want); err != nil {
					t.Errorf("seed %d shards %d %q: %v", seed, shards, q, err)
				}
			}
		}
	}
}

// TestKernelObjIDEquality exercises the u64 key-equality kernel with a
// point predicate taken from a real loaded object.
func TestKernelObjIDEquality(t *testing.T) {
	e, photo, _ := testArchive(t, 4000, 5)
	for _, i := range []int{0, len(photo) / 3, len(photo) - 1} {
		q := fmt.Sprintf("SELECT objid, r FROM photoobj WHERE objid = %d", photo[i].ObjID)
		got := mustCollect(t, e, q)
		want := refCollect(t, e, q)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("%q: %v", q, err)
		}
		if len(got) != 1 {
			t.Errorf("%q: %d rows, want 1", q, len(got))
		}
	}
}

// TestKernelNaNColumns runs the kernel path over a store with NaN-bearing
// magnitude columns: plain comparisons must drop NaN rows, negations must
// return exactly them, matching the reference bit for bit.
func TestKernelNaNColumns(t *testing.T) {
	e, _, _ := nanArchive(t)
	for _, q := range []string{
		"SELECT objid, r FROM tag WHERE r < 100",
		"SELECT objid, r FROM tag WHERE NOT (r < 100)",
		"SELECT objid FROM tag WHERE NOT (r < 17)",
		"SELECT objid FROM tag WHERE NOT (r < 17) AND NOT (r > 30)",
		"SELECT objid, r FROM tag WHERE r >= 14 AND r <= 18",
	} {
		got := mustCollect(t, e, q)
		want := refCollect(t, e, q)
		canonical(got)
		canonical(want)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// TestKernelForcedRawBlocks runs scanKernel over every container twice —
// on its real slab and on a forced-raw encoding of the same records (every
// stored column EncRaw) — and requires identical batches for every grid
// shape: the kernels must be encoding-agnostic.
func TestKernelForcedRawBlocks(t *testing.T) {
	e := testShardArchive(t, 5000, 11, 2)
	rows := 0
	for _, q := range kernelPropertyQueries {
		prep, err := query.PrepareString(q)
		if err != nil {
			t.Fatal(err)
		}
		op, err := e.planLeaf(prep.Select, false)
		if err != nil {
			t.Fatal(err)
		}
		compressed := 0
		for _, sh := range op.st.Shards() {
			opts := sh.Options()
			for _, cid := range sh.Containers() {
				data, count, slab := sh.ColumnData(cid)
				forced := opts.Columns.Encode(data, count, opts.RecordSize, true)
				if forced.EncodedBytes() > slab.EncodedBytes() {
					compressed++
				}
				real := scanSlab(t, e, op, sh, data, count, slab)
				raw := scanSlab(t, e, op, sh, data, count, forced)
				if err := sameBatches(real, raw); err != nil {
					t.Fatalf("%q container %v: real vs forced-raw slab: %v", q, cid, err)
				}
				for _, b := range real {
					rows += len(b)
				}
			}
		}
		if compressed == 0 {
			t.Fatalf("%q: no slab compressed below forced-raw: the comparison is vacuous", q)
		}
	}
	if rows == 0 {
		t.Fatal("the grid emitted no rows: the comparison is vacuous")
	}
}

// scanSlab runs one fresh scan worker of op over a container's records and
// the given slab, returning the batches it emits.
func scanSlab(t *testing.T, e *Engine, op *scanOp, sh *store.Store, data []byte, count int, slab *colblk.Slab) []Batch {
	t.Helper()
	w, err := newScanWorker(e, op, false)
	if err != nil {
		t.Fatal(err)
	}
	var out []Batch
	w.st = sh
	w.emit = func(b Batch) bool {
		out = append(out, b)
		return true
	}
	if _, ok := w.scanKernel(data, count, slab); !ok {
		t.Fatal(w.err)
	}
	w.flush()
	return out
}

// sameBatches compares two batch sequences boundary for boundary, keys
// included.
func sameBatches(a, b []Batch) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d batches vs %d", len(a), len(b))
	}
	for i := range a {
		if err := sameResultsExact(a[i], b[i]); err != nil {
			return fmt.Errorf("batch %d: %v", i, err)
		}
		for j := range a[i] {
			if a[i][j].Key != b[i][j].Key {
				return fmt.Errorf("batch %d row %d: key %v vs %v", i, j, a[i][j].Key, b[i][j].Key)
			}
		}
	}
	return nil
}

// TestKernelLegacyArchiveRebuild reopens a persisted archive whose COLBLK
// sidecars were deleted — the pre-columnar on-disk layout. Slabs must
// rebuild transparently, validate, and the kernel must still agree with
// the reference.
func TestKernelLegacyArchiveRebuild(t *testing.T) {
	dir := t.TempDir()
	photo, spec, err := skygen.GenerateAll(skygen.Default(13, 4000), 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := load.NewTarget(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	tgt.Sort()
	if err := tgt.Flush(); err != nil {
		t.Fatal(err)
	}
	// Strip the column-block sidecars, leaving a legacy archive.
	stripped := 0
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && info.Name() == "COLBLK" {
			stripped++
			return os.Remove(path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if stripped == 0 {
		t.Fatal("no COLBLK sidecars found to strip")
	}
	re, err := load.NewTarget(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Photo: re.Photo, Tag: re.Tag, Spec: re.Spec}
	for _, q := range kernelPropertyQueries {
		got := mustCollect(t, e, q)
		want := refCollect(t, e, q)
		canonical(got)
		canonical(want)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("legacy archive %q: %v", q, err)
		}
	}
	// Every rebuilt slab must round-trip its container's records.
	for _, st := range []*store.Sharded{re.Photo, re.Tag, re.Spec} {
		for _, cid := range st.Containers() {
			if err := st.CheckColBlk(cid); err != nil {
				t.Fatalf("rebuilt slab %v: %v", cid, err)
			}
		}
	}
}

// columnScan runs q under EXPLAIN ANALYZE and checks that its scan ran the
// column pipeline: a vector or vector+pred kernel that decoded column bytes
// whenever it examined records. (A per-shard ORDER BY scan may publish its
// decode counter after its streams close, so q should be unordered.)
func columnScan(t *testing.T, e *Engine, q string) []Result {
	t.Helper()
	plan, rows := openAnalyzed(t, e, q)
	res, err := rows.Collect()
	if err != nil {
		t.Fatalf("collect %q: %v", q, err)
	}
	sn := scanNode(t, plan)
	if sn.Kernel != "vector" && sn.Kernel != "vector+pred" {
		t.Errorf("%q: scan kernel %q, want vector or vector+pred", q, sn.Kernel)
	}
	if sn.Actual.RowsIn > 0 && sn.Actual.BytesDecoded == 0 {
		t.Errorf("%q: scan examined %d records but decoded no column bytes", q, sn.Actual.RowsIn)
	}
	return res
}

// TestEveryScanRunsColumnPipeline is the one-physical-scan property: the
// shapes that offer the kernel no key range (purely spatial, derived
// outputs, arithmetic) run the column pipeline like every other scan, and
// answer exactly what the reference does.
func TestEveryScanRunsColumnPipeline(t *testing.T) {
	e, photo := shardedArchive(t, 4000, 5, 2)
	nan, _, _ := nanArchive(t)
	c := &photo[10]
	for _, tc := range []struct {
		e *Engine
		q string
	}{
		{e, fmt.Sprintf("SELECT * FROM tag WHERE CIRCLE(%v, %v, 30)", c.RA, c.Dec)},
		{e, fmt.Sprintf("SELECT objid, ra, dec, r FROM photoobj WHERE RECT(%v, %v, %v, %v)", c.RA-0.5, c.RA+0.5, c.Dec-0.5, c.Dec+0.5)},
		{e, "SELECT objid, u, g FROM tag WHERE u - g > 1"},
		{e, "SELECT objid, ra, dec FROM tag"},
		{e, fmt.Sprintf("SELECT objid, r FROM photoobj WHERE objid = %d", c.ObjID)},
		{nan, "SELECT objid, r FROM tag WHERE NOT (r < 17)"},
	} {
		got := columnScan(t, tc.e, tc.q)
		want := refCollect(t, tc.e, tc.q)
		canonical(got)
		canonical(want)
		if len(want) == 0 {
			t.Errorf("%q: reference matched no rows", tc.q)
		}
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("%q: %v", tc.q, err)
		}
	}
}

// TestPlanRequiresColumnBlocks: a store without a column spec cannot be
// scanned, and planning says so by table name instead of answering with
// zero rows.
func TestPlanRequiresColumnBlocks(t *testing.T) {
	photo, _, err := skygen.GenerateAll(skygen.Default(3, 200), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenSharded(store.Options{RecordSize: catalog.TagSize, KeyOffset: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]store.Record, len(photo))
	for i := range photo {
		tag := catalog.MakeTag(&photo[i])
		recs[i] = store.Record{HTMID: tag.HTMID, Data: tag.AppendTo(nil)}
	}
	if err := st.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Tag: st}
	for _, q := range []string{
		"SELECT objid FROM tag",
		"SELECT COUNT(*) FROM tag WHERE r < 30",
		"SELECT objid FROM tag WHERE r < 18 UNION SELECT objid FROM tag WHERE g < 18",
	} {
		prep, err := query.PrepareString(q)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Plan(prep)
		if err == nil || !strings.Contains(err.Error(), "table tag") {
			t.Errorf("%q: plan error %v, want one naming table tag", q, err)
		}
		if _, err := e.ExecuteString(context.Background(), q); err == nil {
			t.Errorf("%q: executed over a store with no column blocks", q)
		}
	}
}

package qe

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sdss/internal/load"
	"sdss/internal/skygen"
	"sdss/internal/store"
)

// rowEngine builds an engine over e's stores with the vectorized kernels
// disabled, so every scan runs the row loop. Zone pruning stays on: the
// property under test is the kernel path alone.
func rowEngine(e *Engine) *Engine {
	return &Engine{Photo: e.Photo, Tag: e.Tag, Spec: e.Spec, noKernel: true}
}

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
// scans return bit-identical results to the legacy row path, across seeds,
// the full predicate grid, and 1-versus-8-shard layouts.
func TestKernelScanMatchesRowScan(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		for _, shards := range []int{1, 8} {
			e := testShardArchive(t, 6000, seed, shards)
			row := rowEngine(e)
			for _, q := range kernelPropertyQueries {
				got := mustCollect(t, e, q)
				want := mustCollect(t, row, q)
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
	row := rowEngine(e)
	for _, i := range []int{0, len(photo) / 3, len(photo) - 1} {
		q := fmt.Sprintf("SELECT objid, r FROM photoobj WHERE objid = %d", photo[i].ObjID)
		got := mustCollect(t, e, q)
		want := mustCollect(t, row, q)
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
// return exactly them, matching the row loop bit for bit.
func TestKernelNaNColumns(t *testing.T) {
	e, _, _ := nanArchive(t)
	row := rowEngine(e)
	for _, q := range []string{
		"SELECT objid, r FROM tag WHERE r < 100",
		"SELECT objid, r FROM tag WHERE NOT (r < 100)",
		"SELECT objid FROM tag WHERE NOT (r < 17)",
		"SELECT objid FROM tag WHERE NOT (r < 17) AND NOT (r > 30)",
		"SELECT objid, r FROM tag WHERE r >= 14 AND r <= 18",
	} {
		got := mustCollect(t, e, q)
		want := mustCollect(t, row, q)
		canonical(got)
		canonical(want)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// TestKernelForcedRawBlocks flips every slab to forced-raw encodings and
// re-runs the grid: the kernels must be encoding-agnostic.
func TestKernelForcedRawBlocks(t *testing.T) {
	e := testShardArchive(t, 5000, 11, 2)
	row := rowEngine(e)
	for _, st := range []interface {
		SetColBlkRaw(bool)
		RebuildColBlks()
	}{e.Photo, e.Tag, e.Spec} {
		st.SetColBlkRaw(true)
		st.RebuildColBlks()
	}
	for _, q := range kernelPropertyQueries {
		got := mustCollect(t, e, q)
		want := mustCollect(t, row, q)
		canonical(got)
		canonical(want)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("raw blocks %q: %v", q, err)
		}
	}
}

// TestKernelLegacyArchiveRebuild reopens a persisted archive whose COLBLK
// sidecars were deleted — the pre-columnar on-disk layout. Slabs must
// rebuild transparently, validate, and the kernel path must still agree
// with the row loop.
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
	row := rowEngine(e)
	for _, q := range kernelPropertyQueries {
		got := mustCollect(t, e, q)
		want := mustCollect(t, row, q)
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

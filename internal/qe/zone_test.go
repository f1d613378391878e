package qe

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/load"
	"sdss/internal/query"
	"sdss/internal/store"
)

// baselineEngine clones an engine into the unpruned configuration: no HTM
// pruning, no zone pruning, no column kernels — every record goes through
// the row loop. Its results are the ground truth zone-pruned scans must
// reproduce exactly; query.TestRowReaderMatchesStructCodecs ties the row
// loop's reads to the catalog struct codecs.
func baselineEngine(e *Engine) *Engine {
	b := e.Clone()
	b.NoIndex = true
	b.NoZone = true
	b.NoKernel = true
	return b
}

// sameResultsExact compares two result sets bit-exactly (NaN == NaN).
func sameResultsExact(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ObjID != b[i].ObjID {
			return fmt.Errorf("row %d: objid %d vs %d", i, a[i].ObjID, b[i].ObjID)
		}
		if len(a[i].Values) != len(b[i].Values) {
			return fmt.Errorf("row %d: widths %d vs %d", i, len(a[i].Values), len(b[i].Values))
		}
		for j := range a[i].Values {
			x, y := a[i].Values[j], b[i].Values[j]
			if math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, x, y)
			}
		}
	}
	return nil
}

// zonePropertyQueries is the seeded conformance grid: every shape the
// bounds analyzer handles, plus shapes it must leave alone.
var zonePropertyQueries = []string{
	"SELECT objid, r FROM tag WHERE r < 18",
	"SELECT objid, r FROM tag WHERE r < 21.5",
	"SELECT objid FROM tag WHERE NOT (r < 20)",
	"SELECT objid, g FROM tag WHERE r >= 14 AND r <= 15",
	"SELECT objid FROM tag WHERE r < 15 OR r > 21",
	"SELECT objid FROM tag WHERE class = 'GALAXY' AND r < 20",
	"SELECT objid FROM tag WHERE class = 'QSO'",
	"SELECT objid FROM tag WHERE u - g > 1 AND r < 20",
	"SELECT objid, r FROM tag WHERE r < -5",         // provably empty
	"SELECT objid FROM tag WHERE r < 18 AND r > 21", // provably empty
	"SELECT COUNT(*) FROM tag WHERE r < 19",
	"SELECT MIN(r) FROM tag WHERE r > 16",
	"SELECT objid, r FROM tag WHERE r < 20 ORDER BY r LIMIT 50",
	"SELECT objid, r FROM photoobj WHERE r < 18",
	"SELECT objid FROM photoobj WHERE run = 2 AND camcol = 3",
	"SELECT objid FROM photoobj WHERE NOT (petrorad < 3)",
	"SELECT objid FROM specobj WHERE redshift > 0.5 AND sn > 10",
}

// TestZonePruningConservative is the acceptance property: zone-pruned,
// kernel-filtered results are identical to a NoIndex full row-loop scan,
// across the seeded query grid, on 1 and 3 shards.
func TestZonePruningConservative(t *testing.T) {
	for _, shards := range []int{1, 3} {
		e := testShardArchive(t, 6000, 7, shards)
		base := baselineEngine(e)
		for _, q := range zonePropertyQueries {
			got := mustCollect(t, e, q)
			want := mustCollect(t, base, q)
			canonical(got)
			canonical(want)
			if err := sameResultsExact(got, want); err != nil {
				t.Errorf("shards=%d %q: %v", shards, q, err)
			}
		}
	}
}

// testShardArchive mirrors testArchive with a shard count.
func testShardArchive(t testing.TB, n int, seed int64, shards int) *Engine {
	t.Helper()
	e, _ := shardedArchive(t, n, seed, shards)
	return e
}

// spatialZoneQueries mix spatial predicates with scalar bounds; both prunes
// must compose without losing rows.
func TestZonePlusSpatialPruning(t *testing.T) {
	e, photo, _ := testArchive(t, 5000, 9)
	base := baselineEngine(e)
	c := &photo[42]
	queries := []string{
		fmt.Sprintf("SELECT objid, r FROM tag WHERE CIRCLE(%v, %v, 45) AND r < 20", c.RA, c.Dec),
		fmt.Sprintf("SELECT objid FROM tag WHERE CIRCLE(%v, %v, 30) AND NOT (r < 19)", c.RA, c.Dec),
		fmt.Sprintf("SELECT objid FROM photoobj WHERE CIRCLE(%v, %v, 60) AND r < 18 AND class = 'STAR'", c.RA, c.Dec),
	}
	for _, q := range queries {
		got := mustCollect(t, e, q)
		want := mustCollect(t, base, q)
		canonical(got)
		canonical(want)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// nanArchive loads tag records whose r magnitude is NaN for a slice of
// objects, exercising zone NaN-presence tracking end to end.
func nanArchive(t testing.TB) (*Engine, int, int) {
	t.Helper()
	tgt, err := load.NewTarget("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	nan := 0
	recs := make([]store.Record, 0, n)
	for i := 0; i < n; i++ {
		var p catalog.PhotoObj
		p.ObjID = catalog.ObjID(i + 1)
		if err := p.SetPos(float64(i%360)+0.5, float64(i%120)-60+0.25); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < catalog.NumBands; b++ {
			p.Mag[b] = float32(14 + (i*7%90)/10)
		}
		if i%5 == 0 {
			p.Mag[catalog.R] = float32(math.NaN())
			nan++
		}
		tag := catalog.MakeTag(&p)
		recs = append(recs, store.Record{HTMID: tag.HTMID, Data: tag.AppendTo(nil)})
	}
	if err := tgt.Tag.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	tgt.Sort()
	return &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}, n, nan
}

func TestZoneNaNColumns(t *testing.T) {
	e, n, nan := nanArchive(t)
	base := baselineEngine(e)

	// NaN rows never satisfy a plain comparison...
	got := mustCollect(t, e, "SELECT objid FROM tag WHERE r < 100")
	if len(got) != n-nan {
		t.Errorf("r < 100 returned %d rows, want %d (NaN rows excluded)", len(got), n-nan)
	}
	// ...and always satisfy its negation.
	got = mustCollect(t, e, "SELECT objid, r FROM tag WHERE NOT (r < 100)")
	if len(got) != nan {
		t.Errorf("NOT (r < 100) returned %d rows, want %d (the NaN rows)", len(got), nan)
	}
	for _, r := range got {
		if !math.IsNaN(r.Values[1]) {
			t.Fatalf("non-NaN row %d leaked through NOT", r.ObjID)
		}
	}
	// The full grid agrees with the baseline on the NaN-bearing store.
	for _, q := range []string{
		"SELECT objid, r FROM tag WHERE r < 17",
		"SELECT objid FROM tag WHERE NOT (r < 17)",
		"SELECT objid FROM tag WHERE NOT (r < 17) AND NOT (r > 30)",
		"SELECT COUNT(*) FROM tag WHERE r >= 14",
	} {
		a := mustCollect(t, e, q)
		b := mustCollect(t, base, q)
		canonical(a)
		canonical(b)
		if err := sameResultsExact(a, b); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// TestAlwaysFalsePredicateTouchesNothing verifies the Never short-circuit:
// the scan reports zero scanned containers and returns empty.
func TestAlwaysFalsePredicateTouchesNothing(t *testing.T) {
	e, _, _ := testArchive(t, 3000, 5)
	prep, err := query.PrepareString("SELECT objid FROM tag WHERE r < 18 AND r > 21")
	if err != nil {
		t.Fatal(err)
	}
	fo, err := e.Fanout(prep)
	if err != nil {
		t.Fatal(err)
	}
	if len(fo) != 1 {
		t.Fatalf("fanout entries = %d", len(fo))
	}
	if fo[0].ContainersScanned != 0 {
		t.Errorf("containers_scanned = %d, want 0", fo[0].ContainersScanned)
	}
	if fo[0].ZonePruned != fo[0].ContainersTotal || fo[0].ContainersTotal == 0 {
		t.Errorf("zone_pruned = %d of %d candidates, want all", fo[0].ZonePruned, fo[0].ContainersTotal)
	}
	res := mustCollect(t, e, "SELECT objid FROM tag WHERE r < 18 AND r > 21")
	if len(res) != 0 {
		t.Errorf("always-false predicate returned %d rows", len(res))
	}
}

// TestFanoutZonePruning checks that a selective cut reports pruned
// containers on a store whose zones can separate it (the run attribute is
// spatially clustered by construction of the drift-scan generator).
func TestFanoutZonePruning(t *testing.T) {
	e, _, _ := testArchive(t, 4000, 3)
	prep, err := query.PrepareString("SELECT objid FROM photoobj WHERE mjd < 0")
	if err != nil {
		t.Fatal(err)
	}
	fo, err := e.Fanout(prep)
	if err != nil {
		t.Fatal(err)
	}
	// mjd is always positive in the generator: every candidate prunes.
	if fo[0].ZonePruned != fo[0].ContainersTotal {
		t.Errorf("mjd < 0 pruned %d of %d", fo[0].ZonePruned, fo[0].ContainersTotal)
	}
	// NoZone restores the full scan.
	ez := e.Clone()
	ez.NoZone = true
	fo, err = ez.Fanout(prep)
	if err != nil {
		t.Fatal(err)
	}
	if fo[0].ZonePruned != 0 || fo[0].ContainersScanned != fo[0].ContainersTotal {
		t.Errorf("NoZone fanout still prunes: %+v", fo[0])
	}
}

// TestScanSteadyStateAllocs is the satellite guarantee: with batch buffers
// pooled and Values carved from per-batch backing arrays, the per-record
// scan path allocates (amortized) ~nothing.
func TestScanSteadyStateAllocs(t *testing.T) {
	e, photo, _ := testArchive(t, 8000, 11)
	e.Workers = 2
	q := "SELECT objid, r FROM tag WHERE r < 30" // matches everything
	// Warm the pool and count rows once.
	rows := len(mustCollect(t, e, q))
	if rows < len(photo)/2 {
		t.Fatalf("unexpected row count %d", rows)
	}
	avg := testing.AllocsPerRun(5, func() {
		rs, err := e.ExecuteString(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for b := range rs.C {
			RecycleBatch(b)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := avg / float64(rows)
	// Budget: one Values backing array per 256-row batch plus fixed
	// per-query setup, spread over thousands of records.
	if perRecord > 0.25 {
		t.Errorf("steady-state allocs = %.3f per record (%.0f per query), want ~0", perRecord, avg)
	}
}

// BenchmarkSelectiveDecode times the row loop's per-record work over the
// wide photo rows and the compact tag rows: reset + a predicate-shaped read
// (r magnitude) + identity, the inner loop of a magnitude-cut scan.
func BenchmarkSelectiveDecode(b *testing.B) {
	b.Run("photo", func(b *testing.B) { benchmarkDecode(b, query.TablePhoto) })
	b.Run("tag", func(b *testing.B) { benchmarkDecode(b, query.TableTag) })
}

func benchmarkDecode(b *testing.B, table query.Table) {
	_, photo, _ := testArchive(b, 512, 21)
	recs := make([][]byte, 0, len(photo))
	attr := query.PhotoR
	for i := range photo {
		if table == query.TablePhoto {
			recs = append(recs, photo[i].AppendTo(nil))
		} else {
			tag := catalog.MakeTag(&photo[i])
			recs = append(recs, tag.AppendTo(nil))
			attr = query.TagR
		}
	}
	rr, err := query.NewRowReader(table)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(recs[0])))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		if err := rr.Reset(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		sink += rr.Get(attr)
		_ = rr.ObjID()
	}
	_ = sink
}

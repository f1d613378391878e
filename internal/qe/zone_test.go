package qe

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/load"
	"sdss/internal/query"
	"sdss/internal/store"
)

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
// kernel-filtered results are identical to the unpruned row-by-row
// reference (refCollect), across the seeded query grid, on 1 and 3 shards.
func TestZonePruningConservative(t *testing.T) {
	for _, shards := range []int{1, 3} {
		e := testShardArchive(t, 6000, 7, shards)
		for _, q := range zonePropertyQueries {
			got := mustCollect(t, e, q)
			want := refCollect(t, e, q)
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
	c := &photo[42]
	queries := []string{
		fmt.Sprintf("SELECT objid, r FROM tag WHERE CIRCLE(%v, %v, 45) AND r < 20", c.RA, c.Dec),
		fmt.Sprintf("SELECT objid FROM tag WHERE CIRCLE(%v, %v, 30) AND NOT (r < 19)", c.RA, c.Dec),
		fmt.Sprintf("SELECT objid FROM photoobj WHERE CIRCLE(%v, %v, 60) AND r < 18 AND class = 'STAR'", c.RA, c.Dec),
	}
	for _, q := range queries {
		got := mustCollect(t, e, q)
		want := refCollect(t, e, q)
		canonical(got)
		canonical(want)
		if err := sameResultsExact(got, want); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// nanArchive loads tag records whose r magnitude is NaN for a fifth of the
// objects, across the given number of shard slices, exercising zone
// NaN-presence tracking end to end. Its magnitudes take only nine distinct
// values, so sort keys tie heavily.
func nanArchive(t testing.TB, shards int) (*Engine, int, int) {
	t.Helper()
	tgt, err := load.NewTarget("", 0, shards)
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

// TestOrderByMatchesReference compares ORDER BY ASC and DESC, with and
// without LIMIT, row for row against the reference on the NaN archive at
// one and four shards. Nearly every key ties, so the objid tie-break
// decides the order, and a fifth of the r keys are NaN. Most queries lead
// with a column that is not objid, so a sort breaking ties on the value row
// instead would order differently.
func TestOrderByMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, _, _ := nanArchive(t, shards)
		for _, q := range []string{
			"SELECT objid, r FROM tag ORDER BY r",
			"SELECT ra, objid FROM tag ORDER BY r DESC",
			"SELECT g, objid FROM tag ORDER BY r LIMIT 70",
			"SELECT ra, r FROM tag WHERE g > 15 ORDER BY r DESC LIMIT 70",
		} {
			got := mustCollect(t, e, q)
			want := refCollect(t, e, q)
			if len(want) == 0 {
				t.Fatalf("shards=%d %q: reference matched no rows", shards, q)
			}
			if err := sameResultsExact(got, want); err != nil {
				t.Errorf("shards=%d %q: %v", shards, q, err)
			}
		}
	}
}

func TestZoneNaNColumns(t *testing.T) {
	e, n, nan := nanArchive(t, 1)

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
	// The full grid agrees with the reference on the NaN-bearing store.
	for _, q := range []string{
		"SELECT objid, r FROM tag WHERE r < 17",
		"SELECT objid FROM tag WHERE NOT (r < 17)",
		"SELECT objid FROM tag WHERE NOT (r < 17) AND NOT (r > 30)",
		"SELECT COUNT(*) FROM tag WHERE r >= 14",
	} {
		a := mustCollect(t, e, q)
		b := refCollect(t, e, q)
		canonical(a)
		canonical(b)
		if err := sameResultsExact(a, b); err != nil {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// TestAlwaysFalsePredicateTouchesNothing verifies the Never short-circuit:
// the scan plans as empty, reads no container on any shard, examines no
// record and returns empty.
func TestAlwaysFalsePredicateTouchesNothing(t *testing.T) {
	e, _, _ := testArchive(t, 3000, 5)
	const q = "SELECT objid FROM tag WHERE r < 18 AND r > 21"
	plan, rows := openAnalyzed(t, e, q)
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("always-false predicate returned %d rows", len(res))
	}
	scan := scanNode(t, plan)
	if scan.Access != "empty" || scan.Containers != 0 || sum(scan.ContainersPerShard) != 0 {
		t.Errorf("always-false scan: access %q, %d containers, per shard %v; want empty and none read",
			scan.Access, scan.Containers, scan.ContainersPerShard)
	}
	if len(scan.Bounds) != 1 || !strings.HasPrefix(scan.Bounds[0], "never") {
		t.Errorf("always-false scan bounds = %q", scan.Bounds)
	}
	if scan.Actual.RowsIn != 0 {
		t.Errorf("always-false scan examined %d records", scan.Actual.RowsIn)
	}
}

// TestFanoutZonePruning checks that a selective cut reports pruned
// containers on a store whose zones can separate it: mjd is always
// positive in the generator, so mjd < 0 prunes every candidate.
func TestFanoutZonePruning(t *testing.T) {
	e, _, _ := testArchive(t, 4000, 3)
	scan := mustPlan(t, e, "SELECT objid FROM photoobj WHERE mjd < 0").Describe()
	if scan.Access != "zone-scan" || scan.ZonePruned != scan.Containers || scan.Containers == 0 ||
		sum(scan.ContainersPerShard) != 0 {
		t.Errorf("mjd < 0: access %q, pruned %d of %d, reads %v per shard",
			scan.Access, scan.ZonePruned, scan.Containers, scan.ContainersPerShard)
	}
	if len(scan.Bounds) != 1 || !strings.HasPrefix(scan.Bounds[0], "mjd ∈") {
		t.Errorf("bounds = %q", scan.Bounds)
	}
}

// TestScanSteadyStateAllocs pins the scan path's allocation budget per
// batch, not per record: a batch costs one Batch slice and one Values
// backing array that all its rows' values are carved from, so the
// per-record path allocates (amortized) ~nothing.
func TestScanSteadyStateAllocs(t *testing.T) {
	e, photo, _ := testArchive(t, 8000, 11)
	e.Workers = 2
	q := "SELECT objid, r FROM tag WHERE r < 30" // matches everything
	// Warm the engine and count rows once.
	rows := len(mustCollect(t, e, q))
	if rows < len(photo)/2 {
		t.Fatalf("unexpected row count %d", rows)
	}
	avg := testing.AllocsPerRun(5, func() {
		rs, err := e.ExecuteString(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for range rs.C {
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := avg / float64(rows)
	t.Logf("%.0f allocs per query, %.2f per 256-row batch", avg, perRecord*256)
	// Budget: two allocations per 256-row batch plus fixed per-query setup,
	// spread over thousands of records.
	if perRecord > 0.25 {
		t.Errorf("steady-state allocs = %.3f per record (%.0f per query), want ~0", perRecord, avg)
	}
}

// TestFoldAllocatesNoBatchPerContainer pins the aggregate pushdown's
// allocation: a fold worker builds no batch, folds each container's
// selection straight into that container's slot of a partial array sized
// once per query, and so allocates per worker, not per container. One
// 256-row batch alone is 10 KiB; the budget is under 64 B per scanned
// container, all per-query setup included.
func TestFoldAllocatesNoBatchPerContainer(t *testing.T) {
	e, _, _ := testArchive(t, 20000, 11)
	for _, q := range []string{
		"SELECT AVG(r) FROM photoobj",
		"SELECT COUNT(*) FROM photoobj WHERE g - r > 0.3",
		"SELECT COUNT(*) FROM tag",
	} {
		prep, err := query.PrepareString(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.PlanAnalyze(prep, false)
		if err != nil {
			t.Fatal(err)
		}
		sn := plan.Describe().Children[0]
		scanned := sn.Containers - sn.ZonePruned
		if sn.Op != "scan" || scanned < 1000 {
			t.Fatalf("%s: only %d containers scanned; the per-container budget needs a whole-table scan", q, scanned)
		}
		run := func() {
			rows, err := e.ExecutePlan(context.Background(), plan, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res, err := rows.Collect(); err != nil || len(res) != 1 {
				t.Fatalf("%s: %d rows, err %v", q, len(res), err)
			}
		}
		run() // warm the engine
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perContainer := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(scanned)
		t.Logf("%s: %.0f B per scanned container", q, perContainer)
		if perContainer >= 64 {
			t.Errorf("%s: %.0f B allocated per scanned container (%d containers), want < 64 B", q, perContainer, scanned)
		}
	}
}

// BenchmarkSelectiveDecode times the scan's per-record read over the wide
// photo rows and the compact tag rows: the column getter over a real slab,
// reading a predicate-shaped attribute (r magnitude) and the objid, the
// inner loop of a residual-predicate scan. The column decodes amortize as
// they do in the scan: once per pass over the slab.
func BenchmarkSelectiveDecode(b *testing.B) {
	b.Run("photo", func(b *testing.B) { benchmarkDecode(b, query.TablePhoto, query.PhotoR, query.PhotoObjID) })
	b.Run("tag", func(b *testing.B) { benchmarkDecode(b, query.TableTag, query.TagR, query.TagObjID) })
}

func benchmarkDecode(b *testing.B, table query.Table, attr, objid query.AttrID) {
	e, _, _ := testArchive(b, 512, 21)
	st, err := e.storeFor(table)
	if err != nil {
		b.Fatal(err)
	}
	// The fullest container: its slab is what a scan worker reads.
	var slab *colblk.Slab
	for _, cid := range st.Containers() {
		if _, count, s := st.ColumnData(cid); slab == nil || count > slab.N {
			slab = s
		}
	}
	cols := colblk.NewReader()
	g := query.NewColumnGetter(table, cols)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i % slab.N
		if j == 0 {
			cols.Reset(slab)
		}
		g.Seek(j)
		sink += g.Get(attr) + g.Get(objid)
	}
	decodeSink = sink
}

// decodeSink keeps BenchmarkSelectiveDecode's reads live.
var decodeSink float64

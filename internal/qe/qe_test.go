package qe

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"sdss/internal/catalog"
	"sdss/internal/load"
	"sdss/internal/query"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
)

// testArchive loads a small deterministic survey and returns the engine
// plus the raw objects for brute-force verification.
func testArchive(t testing.TB, n int, seed int64) (*Engine, []catalog.PhotoObj, []catalog.SpecObj) {
	t.Helper()
	photo, spec, err := skygen.GenerateAll(skygen.Default(seed, n), 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := load.NewTarget("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range splitChunks(photo, spec) {
		if _, err := tgt.LoadChunk(ch); err != nil {
			t.Fatal(err)
		}
	}
	tgt.Sort()
	return &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}, photo, spec
}

func splitChunks(photo []catalog.PhotoObj, spec []catalog.SpecObj) []*skygen.Chunk {
	return []*skygen.Chunk{{Photo: photo, Spec: spec}}
}

func mustCollect(t testing.TB, e *Engine, q string) []Result {
	t.Helper()
	rows, err := e.ExecuteString(context.Background(), q)
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatalf("collect %q: %v", q, err)
	}
	return res
}

func TestSimplePredicateMatchesBruteForce(t *testing.T) {
	e, photo, _ := testArchive(t, 4000, 1)
	got := mustCollect(t, e, "SELECT objid FROM photoobj WHERE r < 20 AND u - g > 1")
	want := make(map[catalog.ObjID]bool)
	for i := range photo {
		p := &photo[i]
		if p.Mag[catalog.R] < 20 && p.Mag[catalog.U]-p.Mag[catalog.G] > 1 {
			want[p.ObjID] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine found %d, brute force %d", len(got), len(want))
	}
	for _, r := range got {
		if !want[r.ObjID] {
			t.Fatalf("engine returned wrong object %d", r.ObjID)
		}
	}
}

func TestConeSearchMatchesBruteForce(t *testing.T) {
	e, photo, _ := testArchive(t, 4000, 2)
	// Center the cone on a real object so it is never empty.
	c := &photo[10]
	q := fmt.Sprintf("SELECT objid, ra, dec FROM photoobj WHERE CIRCLE(%v, %v, 30)", c.RA, c.Dec)
	got := mustCollect(t, e, q)
	center := c.Pos()
	radius := 30 * sphere.Arcmin
	want := make(map[catalog.ObjID]bool)
	for i := range photo {
		if sphere.CosDist(center, photo[i].Pos()) >= math.Cos(radius) {
			want[photo[i].ObjID] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cone: engine %d, brute force %d", len(got), len(want))
	}
	for _, r := range got {
		if !want[r.ObjID] {
			t.Fatal("wrong object in cone")
		}
		if len(r.Values) != 3 { // objid, ra, dec
			t.Fatalf("projection has %d values, want 3", len(r.Values))
		}
	}
}

func TestTagAndSpecTables(t *testing.T) {
	e, photo, spec := testArchive(t, 4000, 3)
	// Tag scan must agree with photo scan for tag-resident attributes.
	gotTag := mustCollect(t, e, "SELECT objid FROM tag WHERE r < 19 AND class = 'GALAXY'")
	var want int
	for i := range photo {
		if photo[i].Mag[catalog.R] < 19 && photo[i].Class == catalog.ClassGalaxy {
			want++
		}
	}
	if len(gotTag) != want {
		t.Errorf("tag scan found %d, want %d", len(gotTag), want)
	}
	// Spec scan.
	gotSpec := mustCollect(t, e, "SELECT objid, redshift FROM specobj WHERE redshift > 1")
	var wantSpec int
	for i := range spec {
		if spec[i].Redshift > 1 {
			wantSpec++
		}
	}
	if len(gotSpec) != wantSpec {
		t.Errorf("spec scan found %d, want %d", len(gotSpec), wantSpec)
	}
}

func TestAggregates(t *testing.T) {
	e, photo, _ := testArchive(t, 3000, 4)
	res := mustCollect(t, e, "SELECT COUNT(*) FROM photoobj WHERE class = 'STAR'")
	if len(res) != 1 || len(res[0].Values) != 1 {
		t.Fatalf("count result shape: %+v", res)
	}
	var want float64
	var sumR, minR, maxR float64
	minR, maxR = math.Inf(1), math.Inf(-1)
	for i := range photo {
		if photo[i].Class == catalog.ClassStar {
			want++
			r := float64(photo[i].Mag[catalog.R])
			sumR += r
			minR = math.Min(minR, r)
			maxR = math.Max(maxR, r)
		}
	}
	if res[0].Values[0] != want {
		t.Errorf("COUNT = %v, want %v", res[0].Values[0], want)
	}
	check := func(q string, want float64) {
		res := mustCollect(t, e, q)
		if len(res) != 1 || math.Abs(res[0].Values[0]-want) > 1e-5*math.Abs(want)+1e-9 {
			t.Errorf("%q = %v, want %v", q, res[0].Values, want)
		}
	}
	check("SELECT AVG(r) FROM photoobj WHERE class = 'STAR'", sumR/want)
	check("SELECT MIN(r) FROM photoobj WHERE class = 'STAR'", minR)
	check("SELECT MAX(r) FROM photoobj WHERE class = 'STAR'", maxR)
	check("SELECT SUM(r) FROM photoobj WHERE class = 'STAR'", sumR)
}

func TestOrderByAndLimit(t *testing.T) {
	e, _, _ := testArchive(t, 3000, 5)
	res := mustCollect(t, e, "SELECT objid, r FROM photoobj WHERE class = 'QSO' ORDER BY r LIMIT 5")
	if len(res) > 5 {
		t.Fatalf("limit ignored: %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Values[1] < res[i-1].Values[1] {
			t.Fatalf("not sorted ascending: %v then %v", res[i-1].Values[1], res[i].Values[1])
		}
	}
	resD := mustCollect(t, e, "SELECT objid, r FROM photoobj WHERE class = 'QSO' ORDER BY r DESC LIMIT 5")
	for i := 1; i < len(resD); i++ {
		if resD[i].Values[1] > resD[i-1].Values[1] {
			t.Fatal("not sorted descending")
		}
	}
	// The brightest quasar must coincide.
	if len(res) > 0 && len(resD) > 0 {
		all := mustCollect(t, e, "SELECT objid, r FROM photoobj WHERE class = 'QSO'")
		minR := math.Inf(1)
		for _, r := range all {
			minR = math.Min(minR, r.Values[1])
		}
		if res[0].Values[1] != minR {
			t.Errorf("ORDER BY r first = %v, true min %v", res[0].Values[1], minR)
		}
	}
}

func TestSetOperations(t *testing.T) {
	e, photo, _ := testArchive(t, 3000, 6)
	var nBright, nRed, nBoth int
	for i := range photo {
		bright := photo[i].Mag[catalog.R] < 20
		red := photo[i].Mag[catalog.G]-photo[i].Mag[catalog.R] > 0.8
		if bright {
			nBright++
		}
		if red {
			nRed++
		}
		if bright && red {
			nBoth++
		}
	}
	union := mustCollect(t, e, "(SELECT objid FROM tag WHERE r < 20) UNION (SELECT objid FROM tag WHERE g - r > 0.8)")
	if len(union) != nBright+nRed-nBoth {
		t.Errorf("union = %d, want %d", len(union), nBright+nRed-nBoth)
	}
	inter := mustCollect(t, e, "(SELECT objid FROM tag WHERE r < 20) INTERSECT (SELECT objid FROM tag WHERE g - r > 0.8)")
	if len(inter) != nBoth {
		t.Errorf("intersect = %d, want %d", len(inter), nBoth)
	}
	minus := mustCollect(t, e, "(SELECT objid FROM tag WHERE r < 20) MINUS (SELECT objid FROM tag WHERE g - r > 0.8)")
	if len(minus) != nBright-nBoth {
		t.Errorf("minus = %d, want %d", len(minus), nBright-nBoth)
	}
}

func TestCrossTableSetOp(t *testing.T) {
	// Objects with spectra: photo INTERSECT spec on objid.
	e, _, spec := testArchive(t, 3000, 7)
	res := mustCollect(t, e, "(SELECT objid FROM photoobj) INTERSECT (SELECT objid FROM specobj)")
	if len(res) != len(spec) {
		t.Errorf("photo∩spec = %d, want %d (every spectrum has a photo object)", len(res), len(spec))
	}
}

func TestExecuteErrors(t *testing.T) {
	e, _, _ := testArchive(t, 500, 8)
	if _, err := e.ExecuteString(context.Background(), "SELECT bogus FROM tag"); err == nil {
		t.Error("bad query accepted")
	}
	// Engine with a missing table.
	e2 := &Engine{Photo: e.Photo}
	if _, err := e2.ExecuteString(context.Background(), "SELECT objid FROM specobj"); err == nil {
		t.Error("query on missing store accepted")
	}
}

// TestEngineHoldsALock keeps go vet's copylocks check applying to Engine:
// vet rejects any by-value copy (assignment, range value, call argument,
// return) of a struct that holds a lock, a type whose pointer has Lock and
// Unlock methods. Engine holds one only through its pool's sync.Once; if
// that field ever goes, engine copies would pass vet unnoticed.
func TestEngineHoldsALock(t *testing.T) {
	var holdsLock func(reflect.Type) bool
	holdsLock = func(typ reflect.Type) bool {
		if typ.Kind() != reflect.Struct {
			return false
		}
		p := reflect.PointerTo(typ)
		if _, ok := p.MethodByName("Lock"); ok {
			if _, ok := p.MethodByName("Unlock"); ok {
				return true
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			if holdsLock(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	if !holdsLock(reflect.TypeFor[Engine]()) {
		t.Fatal("qe.Engine holds no lock by value: go vet copylocks no longer rejects Engine copies")
	}
}

func TestCancellation(t *testing.T) {
	e, _, _ := testArchive(t, 5000, 9)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := e.ExecuteString(ctx, "SELECT objid FROM photoobj")
	if err != nil {
		t.Fatal(err)
	}
	// Read one batch then cancel; the stream must close promptly.
	<-rows.C
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-rows.C:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}

func TestRowsClose(t *testing.T) {
	e, _, _ := testArchive(t, 3000, 10)
	rows, err := e.ExecuteString(context.Background(), "SELECT objid FROM photoobj")
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	for range rows.C {
	}
	// Err must not report the cancellation as a failure.
	if err := rows.Err(); err != nil {
		t.Errorf("Err after Close = %v", err)
	}
}

// openAnalyzed plans q under EXPLAIN ANALYZE and starts it.
func openAnalyzed(t *testing.T, e *Engine, q string) (*ExecPlan, *Rows) {
	t.Helper()
	prep, err := query.PrepareString(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanAnalyze(prep, true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.ExecutePlan(context.Background(), plan, ExecOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan, rows
}

// scanNode returns the first leaf scan of an executed plan.
func scanNode(t *testing.T, plan *ExecPlan) *OpNode {
	t.Helper()
	n := plan.Describe()
	for n.Op != "scan" {
		if len(n.Children) == 0 {
			t.Fatalf("no scan node in plan:\n%s", plan.Text())
		}
		n = n.Children[0]
	}
	if n.Actual == nil {
		t.Fatalf("scan node carries no actuals:\n%s", plan.Text())
	}
	return n
}

// TestASAPFirstBatchStopsScan pins the ASAP push structurally: the first
// batch reaches the consumer while the scan is still producing, so a
// consumer that reads one batch and closes stops the scan through
// backpressure (bounded streams, parked emitters) long before it examines
// the table. An execution that withheld results until its children
// finished would have examined every record first.
func TestASAPFirstBatchStopsScan(t *testing.T) {
	e, photo, _ := testArchive(t, 20000, 11)
	plan, rows := openAnalyzed(t, e, "SELECT objid FROM photoobj WHERE r < 23")
	b, ok := <-rows.C
	if !ok || len(b) == 0 {
		t.Fatal("no first batch")
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	// The bound is the streams' capacity (a few batches per stream plus one
	// in-flight batch per started morsel), a small fraction of the table.
	if examined := scanNode(t, plan).Actual.RowsIn; 2*examined >= int64(len(photo)) {
		t.Errorf("scan examined %d of %d records before the consumer's close stopped it, want well under half",
			examined, len(photo))
	}
}

// TestSpatialPruningScansFewerRecords checks the HTM index from the
// analyzed plan: a 10′ cone reads a handful of candidate containers and
// their records, the unconstrained count reads them all.
func TestSpatialPruningScansFewerRecords(t *testing.T) {
	e, photo, _ := testArchive(t, 10000, 12)
	c := &photo[0]
	scan := func(q string) *OpNode {
		plan, rows := openAnalyzed(t, e, q)
		if _, err := rows.Collect(); err != nil {
			t.Fatal(err)
		}
		return scanNode(t, plan)
	}
	cone := scan(fmt.Sprintf("SELECT COUNT(*) FROM photoobj WHERE CIRCLE(%v, %v, 10)", c.RA, c.Dec))
	full := scan("SELECT COUNT(*) FROM photoobj")
	if full.Actual.RowsIn != int64(len(photo)) {
		t.Errorf("full scan examined %d records, want %d", full.Actual.RowsIn, len(photo))
	}
	if cone.Containers == 0 || 2*cone.Containers > full.Containers {
		t.Errorf("cone reads %d candidate containers, full scan %d: want a non-empty minority",
			cone.Containers, full.Containers)
	}
	if cone.Actual.RowsIn == 0 || 2*cone.Actual.RowsIn > full.Actual.RowsIn {
		t.Errorf("cone examined %d records, full scan %d: want a non-empty minority",
			cone.Actual.RowsIn, full.Actual.RowsIn)
	}
}

func BenchmarkFullScanCount(b *testing.B) {
	e, _, _ := testArchive(b, 20000, 1)
	ctx := context.Background()
	prep, err := query.PrepareString("SELECT COUNT(*) FROM photoobj WHERE r < 22")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := e.Execute(ctx, prep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConeSearch(b *testing.B) {
	e, photo, _ := testArchive(b, 20000, 1)
	ctx := context.Background()
	q := fmt.Sprintf("SELECT objid FROM photoobj WHERE CIRCLE(%v, %v, 15)", photo[0].RA, photo[0].Dec)
	prep, err := query.PrepareString(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := e.Execute(ctx, prep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

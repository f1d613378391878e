package core

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/query"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
	"sdss/internal/tiling"
)

func testArchive(t testing.TB, n int, seed int64) (*Archive, *skygen.Chunk) {
	t.Helper()
	a, err := Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := skygen.GenerateChunk(skygen.Default(seed, n), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.LoadChunk(ch); err != nil {
		t.Fatal(err)
	}
	return a, ch
}

func TestCreateLoadQuery(t *testing.T) {
	a, ch := testArchive(t, 3000, 1)
	st := a.Stats()
	if st.PhotoObjects != int64(len(ch.Photo)) || st.TagObjects != st.PhotoObjects {
		t.Fatalf("stats %+v do not match chunk of %d", st, len(ch.Photo))
	}
	rows, err := a.Query(context.Background(), "SELECT COUNT(*) FROM photoobj")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Values[0] != float64(len(ch.Photo)) {
		t.Errorf("COUNT(*) = %v, want %d", res[0].Values[0], len(ch.Photo))
	}
}

func TestPersistentArchive(t *testing.T) {
	dir := t.TempDir()
	a, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := skygen.GenerateChunk(skygen.Default(2, 1000), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.LoadChunk(ch); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats().PhotoObjects != int64(len(ch.Photo)) {
		t.Fatalf("reopened archive holds %d objects, want %d", b.Stats().PhotoObjects, len(ch.Photo))
	}
}

func TestConeSearch(t *testing.T) {
	a, ch := testArchive(t, 4000, 3)
	c := &ch.Photo[0]
	got, err := a.ConeSearch(context.Background(), c.RA, c.Dec, 30)
	if err != nil {
		t.Fatal(err)
	}
	center := c.Pos()
	want := 0
	for i := range ch.Photo {
		if sphere.Dist(center, ch.Photo[i].Pos()) <= 30*sphere.Arcmin {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("cone found %d, want %d", len(got), want)
	}
	for i := range got {
		if d := sphere.Dist(center, got[i].Pos()); d > 30*sphere.Arcmin+1e-12 {
			t.Fatalf("object outside cone at %v", d)
		}
	}
}

func TestLensAndGroupsAndCrossMatch(t *testing.T) {
	a, ch := testArchive(t, 4000, 4)
	// Lens candidates run end to end (count depends on the sky draw).
	if _, err := a.LensCandidates(10, 0.05); err != nil {
		t.Fatal(err)
	}
	groups, err := a.Groups(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic sky has rich clusters; FoF at 30 arcsec must find some.
	if len(groups) == 0 {
		t.Error("no groups found in clustered sky")
	}
	radio := skygen.RadioCatalog(9, ch.Photo, 0.8, 1.0, 0.2)
	matches, err := a.CrossMatch(radio, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Error("no cross-matches")
	}
}

func TestSampleArchive(t *testing.T) {
	a, _ := testArchive(t, 20000, 5)
	s, err := a.Sample(0.1)
	if err != nil {
		t.Fatal(err)
	}
	full := a.Stats()
	samp := s.Stats()
	frac := float64(samp.PhotoObjects) / float64(full.PhotoObjects)
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("sample fraction %.3f, want ~0.1", frac)
	}
	if samp.PhotoObjects != samp.TagObjects {
		t.Error("sample tables inconsistent")
	}
	// Sampled archive answers queries.
	rows, err := s.Query(context.Background(), "SELECT COUNT(*) FROM tag WHERE r < 21")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Sample(0); err == nil {
		t.Error("zero fraction accepted")
	}
}

func TestScanMachineIntegration(t *testing.T) {
	a, ch := testArchive(t, 2000, 6)
	m, fabric, err := a.ScanMachine(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	// Node sweepers call the query concurrently; guard shared state.
	var mu sync.Mutex
	count := 0
	tk := m.Submit(func(rec []byte) {
		var obj catalog.PhotoObj
		if err := obj.Decode(rec); err == nil {
			mu.Lock()
			count++
			mu.Unlock()
		}
	})
	if err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != len(ch.Photo) {
		t.Fatalf("scan machine delivered %d records, want %d", count, len(ch.Photo))
	}
	if fabric.TotalBytesRead() == 0 {
		t.Error("fabric accounted no bytes")
	}
}

func TestWWWIntegration(t *testing.T) {
	a, _ := testArchive(t, 1000, 7)
	srv := httptest.NewServer(a.WWW())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status endpoint returned %d", resp.StatusCode)
	}
}

func TestPlanTiles(t *testing.T) {
	a, ch := testArchive(t, 20000, 9)
	if len(ch.Spec) == 0 {
		t.Skip("no spectra at this scale")
	}
	res, err := a.PlanTiles(tiling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(ch.Spec) {
		t.Errorf("tiling saw %d targets, want %d", res.Total, len(ch.Spec))
	}
	if res.Coverage() < 0.9 {
		t.Errorf("tiling covered %.2f of spectro targets", res.Coverage())
	}
	for _, tile := range res.Tiles {
		if len(tile.Assigned) > tiling.FibersPerTile {
			t.Fatal("tile over fiber budget")
		}
	}
}

func TestPrepareExecute(t *testing.T) {
	a, _ := testArchive(t, 1500, 8)
	prep, err := a.Prepare("SELECT COUNT(*) FROM tag WHERE class = 'GALAXY'")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rows, err := a.Execute(context.Background(), prep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryRowsTypedSurface(t *testing.T) {
	a, _ := testArchive(t, 2000, 12)
	rows, err := a.QueryRows(context.Background(), "SELECT objid, ra, dec, r FROM tag ORDER BY r", QueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	cols := rows.Columns()
	if len(cols) != 4 || cols[0].Name != "objid" || cols[3].Name != "r" {
		t.Fatalf("columns = %+v", cols)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("limit delivered %d rows, want 5", len(res))
	}
	if !rows.Truncated() {
		t.Error("capped stream not marked truncated")
	}

	// Offset pages line up with the unpaged result.
	paged, err := a.QueryRows(context.Background(), "SELECT objid, ra, dec, r FROM tag ORDER BY r", QueryOptions{Limit: 2, Offset: 3})
	if err != nil {
		t.Fatal(err)
	}
	page, err := paged.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].ObjID != res[3].ObjID {
		t.Fatalf("page = %+v, want rows 3..4 of %+v", page, res[3:])
	}
}

func TestExplainPlan(t *testing.T) {
	a, _ := testArchive(t, 100, 13)
	plan, err := a.PlanQuery("SELECT objid FROM tag WHERE CIRCLE(10, 10, 5)")
	if err != nil {
		t.Fatal(err)
	}
	if n := plan.Describe(); n.Op != "scan" || !strings.HasPrefix(n.Access, "htm-index") {
		t.Fatalf("plan = %+v", n)
	}
	if !strings.HasPrefix(plan.Text(), "SCAN tag VIA htm-index") {
		t.Errorf("plan text = %q", plan.Text())
	}
	if _, err := a.PlanQuery("garbage"); err == nil {
		t.Error("PlanQuery accepted garbage")
	}
}

func TestConeSearchFieldFidelity(t *testing.T) {
	// The projected-value rebuild must reproduce the stored tags exactly.
	a, ch := testArchive(t, 3000, 14)
	c := &ch.Photo[0]
	got, err := a.ConeSearch(context.Background(), c.RA, c.Dec, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("empty cone around a real object")
	}
	want := make(map[catalog.ObjID]catalog.Tag)
	for i := range ch.Photo {
		tag := catalog.MakeTag(&ch.Photo[i])
		want[tag.ObjID] = tag
	}
	for _, g := range got {
		w, ok := want[g.ObjID]
		if !ok {
			t.Fatalf("cone returned unknown object %d", g.ObjID)
		}
		if g.HTMID != w.HTMID || g.Mag != w.Mag || g.Size != w.Size || g.Class != w.Class {
			t.Fatalf("rebuilt tag %+v != stored %+v", g, w)
		}
		if sphere.Dist(g.Pos(), w.Pos()) > 1e-12 {
			t.Fatalf("position drifted for %d", g.ObjID)
		}
	}
}

func TestCone(t *testing.T) {
	a, ch := testArchive(t, 2000, 15)
	c := &ch.Photo[0]
	rows, err := a.Cone(context.Background(), query.TableTag, c.RA, c.Dec, 30, "objid, r", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cols := rows.Columns()
	if len(cols) != 2 || cols[1].Name != "r" {
		t.Fatalf("cone columns = %+v", cols)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("cone returned nothing")
	}
}

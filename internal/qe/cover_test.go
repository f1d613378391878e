package qe

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/load"
	"sdss/internal/query"
	"sdss/internal/region"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
)

// edgeSites are query centres the survey footprint (the north galactic cap)
// never reaches: both celestial poles and two points on the RA 0/360 seam.
var edgeSites = []struct{ ra, dec float64 }{{0, 90}, {0, -90}, {0, 10}, {359.95, -20}}

// coverArchive loads the deterministic survey at container depth cd across
// the given number of shard slices, plus 200 objects scattered within ~2.5°
// of every edge site, so the grid's pole and seam queries have rows to get
// right.
func coverArchive(t testing.TB, n int, seed int64, cd, shards int) (*Engine, []catalog.PhotoObj) {
	t.Helper()
	photo, spec, err := skygen.GenerateAll(skygen.Default(seed, n), 2)
	if err != nil {
		t.Fatal(err)
	}
	var next catalog.ObjID
	for i := range photo {
		next = max(next, photo[i].ObjID)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range edgeSites {
		v := sphere.FromRADec(s.ra, s.dec)
		e1 := v.Orthogonal()
		e2 := v.Cross(e1)
		for k := 0; k < 200; k++ {
			dx := (2*rng.Float64() - 1) * sphere.Radians(2.5)
			dy := (2*rng.Float64() - 1) * sphere.Radians(2.5)
			ra, dec := sphere.ToRADec(v.Add(e1.Scale(dx)).Add(e2.Scale(dy)).Normalize())
			p := photo[k%len(photo)]
			next++
			p.ObjID = next
			if err := p.SetPos(ra, dec); err != nil {
				t.Fatal(err)
			}
			photo = append(photo, p)
		}
	}
	tgt, err := load.NewTarget("", cd, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	tgt.Sort()
	return &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}, photo
}

// TestCoverDepthFromDensity pins the per-table depth rule: container depth
// plus ⌊log₄(records per container)⌋, clamped to [cd, DefaultCoverDepth].
func TestCoverDepthFromDensity(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cd         int
		records    int64
		containers int
		want       int
	}{
		{"bench archive, 93 per container", 4, 93 * 540, 540, 7},
		{"23 per container", 4, 23 * 540, 540, 6},
		{"3 per container", 4, 3 * 540, 540, 4},
		{"one per container", 5, 100, 100, 5},
		{"empty store", 5, 0, 0, 5},
		{"exactly 4^3 per container", 4, 64 * 10, 10, 7},
		{"just under 4^3", 4, 63 * 10, 10, 6},
		{"1e5 per container capped", 5, 100000 * 2000, 2000, DefaultCoverDepth},
		{"container depth past the cap", 12, 1000, 10, 12},
	} {
		if got := coverDepthFromDensity(tc.cd, tc.records, tc.containers); got != tc.want {
			t.Errorf("%s: depth = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCoverDepthExplicitWins checks the engine-level choice: CoverDepth 0
// derives the depth from each store's density, and an explicit CoverDepth
// is used exactly as given, shallower or deeper than the derived one.
func TestCoverDepthExplicitWins(t *testing.T) {
	e, _ := coverArchive(t, 6000, 3, 4, 1)
	st := e.Photo
	want := coverDepthFromDensity(st.ContainerDepth(), st.NumRecords(), st.NumContainers())
	if got := e.coverDepthFor(st); got != want {
		t.Errorf("per-table depth = %d, want %d", got, want)
	}
	for _, d := range []int{3, 10, 12} {
		explicit := &Engine{Photo: e.Photo, CoverDepth: d}
		if got := explicit.coverDepthFor(st); got != d {
			t.Errorf("CoverDepth %d: depth = %d", d, got)
		}
	}
}

// coveredTrixels is Σ Coverage.Levels: every trixel the descent classified.
func coveredTrixels(cov *region.Coverage) int {
	n := 0
	for _, l := range cov.Levels {
		n += l.Inside + l.Partial + l.Rejected
	}
	return n
}

// TestPlannedCoverClassifiesFewerTrixels is the mechanism behind the
// interactive speedup: on a store dense enough to cover at depth 6, the
// planner's cover of a 2° circle classifies at least 4× fewer trixels than
// the fixed depth-10 cover it replaces, and EXPLAIN reports that depth.
func TestPlannedCoverClassifiesFewerTrixels(t *testing.T) {
	e, photo := coverArchive(t, 20000, 5, 4, 1)
	c := &photo[0]
	q := fmt.Sprintf("SELECT objid FROM photoobj WHERE CIRCLE(%v, %v, 120)", c.RA, c.Dec)
	prep, err := query.PrepareString(q)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := region.Cover(prep.Select.Region, e.coverDepthFor(e.Photo))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := region.Cover(prep.Select.Region, DefaultCoverDepth)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Depth >= DefaultCoverDepth {
		t.Fatalf("planned depth %d on a %d-records-per-container store, want below %d",
			planned.Depth, e.Photo.NumRecords()/int64(e.Photo.NumContainers()), DefaultCoverDepth)
	}
	np, nf := coveredTrixels(planned), coveredTrixels(fixed)
	t.Logf("depth %d classifies %d trixels, depth %d classifies %d", planned.Depth, np, DefaultCoverDepth, nf)
	if 4*np > nf {
		t.Errorf("planned cover classifies %d trixels, depth-10 cover %d: want at least 4× fewer", np, nf)
	}

	plan, err := e.Plan(prep)
	if err != nil {
		t.Fatal(err)
	}
	scan := plan.Describe()
	if scan.Op != "scan" || scan.CoverDepth != planned.Depth {
		t.Errorf("plan root %s reports cover depth %d, want %d", scan.Op, scan.CoverDepth, planned.Depth)
	}
	if want := fmt.Sprintf(" COVER %d ", planned.Depth); !strings.Contains(plan.Text(), want) {
		t.Errorf("plan text lacks %q:\n%s", want, plan.Text())
	}
}

// TestFanoutMatchesPlannedScan is the EXPLAIN regression: below the index
// crossover the scan reports the containers that overlap the cover at its
// reported depth, and its per-shard counts sum to what it reads, on one
// shard and on four. Depth 2, coarser than the containers, is where a count
// taken from a cover at any other depth would differ.
func TestFanoutMatchesPlannedScan(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, photo := coverArchive(t, 6000, 7, 4, shards)
		c := &photo[10]
		for _, depth := range []int{0, 2} {
			ed := &Engine{Photo: e.Photo, Tag: e.Tag, Spec: e.Spec, CoverDepth: depth}
			for _, radius := range []float64{5, 30, 120} {
				q := fmt.Sprintf("SELECT objid FROM tag WHERE CIRCLE(%v, %v, %v)", c.RA, c.Dec, radius)
				plan := mustPlan(t, ed, q)
				scan := plan.Describe()
				if scan.Access != "htm-index" {
					t.Fatalf("shards=%d CoverDepth=%d %q: access %q, want htm-index (below the crossover)",
						shards, depth, q, scan.Access)
				}
				cov, err := region.Cover(plan.root.(*scanOp).cs.Region, scan.CoverDepth)
				if err != nil {
					t.Fatal(err)
				}
				rs := cov.RangeSet()
				overlapping := 0
				for _, cid := range ed.Tag.Containers() {
					if rs.OverlapsTrixel(cid) {
						overlapping++
					}
				}
				if scan.Containers != overlapping || sum(scan.ContainersPerShard) != scan.Containers {
					t.Errorf("shards=%d CoverDepth=%d %q: scan reports %d containers (per shard %v), cover at depth %d overlaps %d",
						shards, depth, q, scan.Containers, scan.ContainersPerShard, scan.CoverDepth, overlapping)
				}
			}
		}
	}
}

// coverGridQueries are the grid's spatial shapes: cones of 1′ to 120′ and
// 1°×1° boxes, around a survey object, both poles and the RA seam.
func coverGridQueries(c *catalog.PhotoObj) []string {
	var shapes []string
	centres := append([]struct{ ra, dec float64 }{{c.RA, c.Dec}}, edgeSites...)
	for _, s := range centres {
		for _, r := range []float64{1, 5, 30, 120} {
			shapes = append(shapes, fmt.Sprintf("CIRCLE(%v, %v, %v)", s.ra, s.dec, r))
		}
	}
	shapes = append(shapes,
		fmt.Sprintf("RECT(%v, %v, %v, %v)", c.RA-0.5, c.RA+0.5, c.Dec-0.5, c.Dec+0.5),
		"RECT(0, 360, 89, 90)",        // the north polar cap
		"RECT(100, 101, -90, -89)",    // a sliver touching the south pole
		"RECT(359.5, 0.5, 9.5, 10.5)", // straddling the seam
	)
	var qs []string
	for _, s := range shapes {
		// The photo cut prefilters on the r range; the pure spatial tag
		// query has no key range, so its kernel selects every record and
		// filters on the decoded HTM column alone.
		qs = append(qs,
			"SELECT objid, ra, dec, r FROM photoobj WHERE "+s+" AND r < 22",
			"SELECT objid, ra, dec FROM tag WHERE "+s)
	}
	return qs
}

// TestCoverDepthGrid is the correctness grid for the cover depth: for a
// depth coarser than the containers, the container depth, the per-table
// rule, the old fixed 10 and a deeper 12, spatial results are bit-identical
// to the unpruned reference (refCollect) on one and four shards, and every
// scan runs the column pipeline.
func TestCoverDepthGrid(t *testing.T) {
	const cd = 4
	for _, shards := range []int{1, 4} {
		e, photo := coverArchive(t, 6000, 11, cd, shards)
		queries := coverGridQueries(&photo[10])
		want := make([][]Result, len(queries))
		for i, q := range queries {
			want[i] = refCollect(t, e, q)
			canonical(want[i])
			// Every centre's widest cone, poles and seam included, must
			// have rows for the comparison to mean something.
			if strings.Contains(q, ", 120)") && len(want[i]) == 0 {
				t.Errorf("shards=%d %q matched no rows", shards, q)
			}
		}
		for _, depth := range []int{cd - 2, cd, 0, 10, 12} {
			pruned := &Engine{Photo: e.Photo, Tag: e.Tag, Spec: e.Spec, CoverDepth: depth}
			for i, q := range queries {
				got := columnScan(t, pruned, q)
				canonical(got)
				if err := sameResultsExact(got, want[i]); err != nil {
					t.Errorf("shards=%d CoverDepth=%d %q: %v", shards, depth, q, err)
				}
			}
		}
	}
}

// BenchmarkPlanSpatial times planning alone — parse excluded, the cover
// included — for the interactive shapes on a bench-density archive (50k
// objects at container depth 4, ~93 records per container).
func BenchmarkPlanSpatial(b *testing.B) {
	e, photo := coverArchive(b, 50000, 1, 4, 1)
	c := &photo[0]
	for _, bc := range []struct{ name, q string }{
		{"circle2deg", fmt.Sprintf("SELECT objid FROM photoobj WHERE CIRCLE(%v, %v, 120)", c.RA, c.Dec)},
		{"rect1deg", fmt.Sprintf("SELECT objid FROM photoobj WHERE RECT(%v, %v, %v, %v)", c.RA-0.5, c.RA+0.5, c.Dec-0.5, c.Dec+0.5)},
	} {
		prep, err := query.PrepareString(bc.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := e.PlanAnalyze(prep, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanSpatial times plan + execute + collect of the interactive
// spatial shapes that offer the kernel no key range — a tag SELECT * cone,
// a circle top-50 and a circle count with a colour residual — on the same
// bench-density archive as BenchmarkPlanSpatial.
func BenchmarkScanSpatial(b *testing.B) {
	e, photo := coverArchive(b, 50000, 1, 4, 1)
	c := &photo[0]
	benchQueries(b, e, "", []struct{ name, q string }{
		{"cone10", fmt.Sprintf("SELECT * FROM tag WHERE CIRCLE(%v, %v, 10)", c.RA, c.Dec)},
		{"top60", fmt.Sprintf("SELECT objid, ra, dec, r FROM tag WHERE CIRCLE(%v, %v, 60) ORDER BY r LIMIT 50", c.RA, c.Dec)},
		{"count120", fmt.Sprintf("SELECT COUNT(*) FROM tag WHERE CIRCLE(%v, %v, 120) AND g - r > 0.4", c.RA, c.Dec)},
	})
}

// benchQueries runs one sub-benchmark per query, named prefix+name, timing
// plan + execute + collect with allocations reported.
func benchQueries(b *testing.B, e *Engine, prefix string, queries []struct{ name, q string }) {
	for _, bc := range queries {
		prep, err := query.PrepareString(bc.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prefix+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rows, err := e.Execute(context.Background(), prep)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rows.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

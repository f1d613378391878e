package qe

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/load"
	"sdss/internal/query"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
)

// joinArchive loads a deterministic survey into an engine with the given
// shard count, returning the raw objects for nested-loop references.
func joinArchive(t testing.TB, n int, seed int64, shards int) (*Engine, []catalog.PhotoObj, []catalog.SpecObj) {
	t.Helper()
	photo, spec, err := skygen.GenerateAll(skygen.Default(seed, n), 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := load.NewTarget("", 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	tgt.Sort()
	return &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}, photo, spec
}

// TestHashJoinMatchesNestedLoop is the join-correctness property test: the
// objid hash join must agree exactly with a nested-loop reference over the
// raw object arrays, across several random datasets.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		e, photo, spec := joinArchive(t, 2500, seed, 1)
		got := mustCollect(t, e,
			"SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 18")

		// Nested-loop reference.
		want := map[catalog.ObjID]float64{}
		for i := range photo {
			if !(photo[i].Mag[catalog.R] < 18) {
				continue
			}
			for j := range spec {
				if spec[j].ObjID == photo[i].ObjID {
					want[photo[i].ObjID] = float64(spec[j].Redshift)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: hash join %d rows, nested loop %d", seed, len(got), len(want))
		}
		for _, r := range got {
			z, ok := want[r.ObjID]
			if !ok {
				t.Fatalf("seed %d: unexpected joined object %d", seed, r.ObjID)
			}
			if r.Values[1] != z {
				t.Fatalf("seed %d: object %d redshift %v, want %v", seed, r.ObjID, r.Values[1], z)
			}
			if r.Values[0] != float64(uint64(r.ObjID)) {
				t.Fatalf("seed %d: projected objid %v != row objid %d", seed, r.Values[0], r.ObjID)
			}
		}
	}
}

// TestJoinShardsBitIdentical pins the distributed property: the same join
// under ORDER BY must produce bit-identical streams on 1-shard and 8-shard
// archives.
func TestJoinShardsBitIdentical(t *testing.T) {
	const q = "SELECT p.objid, s.redshift, p.r FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 20 ORDER BY s.redshift DESC"
	e1, _, _ := joinArchive(t, 3000, 7, 1)
	e8, _, _ := joinArchive(t, 3000, 7, 8)
	r1 := mustCollect(t, e1, q)
	r8 := mustCollect(t, e8, q)
	if len(r1) == 0 {
		t.Fatal("empty join result")
	}
	if len(r1) != len(r8) {
		t.Fatalf("1 shard %d rows, 8 shards %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i].ObjID != r8[i].ObjID {
			t.Fatalf("row %d: objid %d vs %d", i, r1[i].ObjID, r8[i].ObjID)
		}
		for k := range r1[i].Values {
			if math.Float64bits(r1[i].Values[k]) != math.Float64bits(r8[i].Values[k]) {
				t.Fatalf("row %d col %d: %v vs %v (not bit-identical)",
					i, k, r1[i].Values[k], r8[i].Values[k])
			}
		}
	}
}

// TestJoinNaNKeysDropped pins SQL equality semantics for general float join
// keys: NaN keys match nothing — even though NaN bit patterns would
// hash-collide happily.
func TestJoinNaNKeysDropped(t *testing.T) {
	photo, spec, err := skygen.GenerateAll(skygen.Default(11, 400), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Give every spectrum's SN the r magnitude of its own object, so
	// ON p.r = s.sn matches exactly the spectra whose key is finite; then
	// poison half the pairs with NaN on both sides. A hash join that
	// matched NaN-to-NaN (bitwise) would emit those poisoned pairs.
	rOf := map[catalog.ObjID]float32{}
	for i := range photo {
		rOf[photo[i].ObjID] = photo[i].Mag[catalog.R]
	}
	nan := float32(math.NaN())
	poisoned := map[catalog.ObjID]bool{}
	for j := range spec {
		spec[j].SN = rOf[spec[j].ObjID]
		if j%2 == 1 {
			spec[j].SN = nan
			poisoned[spec[j].ObjID] = true
		}
	}
	for i := range photo {
		if poisoned[photo[i].ObjID] {
			photo[i].Mag[catalog.R] = nan
		}
	}
	tgt, err := load.NewTarget("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	tgt.Sort()
	e := &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}

	got := mustCollect(t, e, "SELECT p.objid FROM photoobj p JOIN specobj s ON p.r = s.sn")

	// Nested-loop reference under float ==, which is false for NaN.
	want := 0
	for i := range photo {
		for j := range spec {
			if float64(photo[i].Mag[catalog.R]) == float64(spec[j].SN) {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatal("degenerate dataset: no finite-key matches")
	}
	if len(got) != want {
		t.Fatalf("join emitted %d rows, nested loop %d", len(got), want)
	}
	for _, r := range got {
		if poisoned[r.ObjID] && math.IsNaN(float64(rOf[r.ObjID])) {
			t.Fatalf("NaN-keyed object %d matched", r.ObjID)
		}
	}
}

// TestJoinResidualPredicate checks cross-table conjuncts that cannot push
// below the join: they must filter candidate pairs exactly as a nested
// loop would.
func TestJoinResidualPredicate(t *testing.T) {
	e, photo, spec := joinArchive(t, 2500, 5, 2)
	got := mustCollect(t, e,
		"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.u - p.g > s.redshift")
	want := 0
	specByID := map[catalog.ObjID]*catalog.SpecObj{}
	for j := range spec {
		specByID[spec[j].ObjID] = &spec[j]
	}
	for i := range photo {
		s, ok := specByID[photo[i].ObjID]
		if !ok {
			continue
		}
		if float64(photo[i].Mag[catalog.U])-float64(photo[i].Mag[catalog.G]) > float64(s.Redshift) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("residual join %d rows, nested loop %d", len(got), want)
	}
}

// TestJoinResidualWholeRowTests: conjuncts mixing a whole-row test (which
// binds to the left table) with a right-side column cannot push down — they
// must evaluate as residuals, spatial against the left row's position and
// FLAG against the left row's flags, without missing projected inputs.
func TestJoinResidualWholeRowTests(t *testing.T) {
	e, photo, spec := joinArchive(t, 2500, 15, 2)
	specByID := map[catalog.ObjID]*catalog.SpecObj{}
	for j := range spec {
		specByID[spec[j].ObjID] = &spec[j]
	}

	c := &photo[0]
	q := fmt.Sprintf(
		"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE CIRCLE(%v, %v, 120) OR s.sn > 5",
		c.RA, c.Dec)
	got := mustCollect(t, e, q)
	radius := 120 * sphere.Arcmin
	want := 0
	for i := range photo {
		s, ok := specByID[photo[i].ObjID]
		if !ok {
			continue
		}
		inCircle := sphere.CosDist(c.Pos(), photo[i].Pos()) >= math.Cos(radius)
		if inCircle || s.SN > 5 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("spatial-residual join %d rows, nested loop %d", len(got), want)
	}

	got = mustCollect(t, e,
		"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE FLAG('BLENDED') OR s.sn > 8")
	want = 0
	for i := range photo {
		s, ok := specByID[photo[i].ObjID]
		if !ok {
			continue
		}
		if photo[i].Flags&catalog.FlagBlended != 0 || s.SN > 8 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("flag-residual join %d rows, nested loop %d", len(got), want)
	}
}

// TestSetOpOverJoinRejected: set operations match rows by ObjID, which
// cannot represent join pairs — the compiler must refuse instead of
// silently collapsing pairs.
func TestSetOpOverJoinRejected(t *testing.T) {
	bad := []string{
		"(SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 1)) UNION (SELECT objid, r FROM tag WHERE r < 14)",
		"(SELECT objid FROM tag) INTERSECT (SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid)",
	}
	for _, q := range bad {
		if _, err := query.PrepareString(q); err == nil {
			t.Errorf("PrepareString(%q) succeeded", q)
		}
	}
}

// TestJoinAggregateAndLimit covers aggregates and ORDER BY/LIMIT stacked on
// a join.
func TestJoinAggregateAndLimit(t *testing.T) {
	e, photo, spec := joinArchive(t, 2500, 6, 2)
	withSpec := map[catalog.ObjID]bool{}
	for j := range spec {
		withSpec[spec[j].ObjID] = true
	}
	want := 0
	for i := range photo {
		if photo[i].Mag[catalog.R] < 19 && withSpec[photo[i].ObjID] {
			want++
		}
	}
	res := mustCollect(t, e, "SELECT COUNT(*) FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 19")
	if len(res) != 1 || res[0].Values[0] != float64(want) {
		t.Fatalf("join COUNT(*) = %v, want %d", res[0].Values, want)
	}

	top := mustCollect(t, e, "SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid ORDER BY s.redshift DESC LIMIT 5")
	if len(top) > 5 {
		t.Fatalf("limit ignored: %d rows", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Values[1] > top[i-1].Values[1] {
			t.Fatal("not sorted descending by redshift")
		}
	}
}

// TestNeighborJoinMatchesNaive checks the spatial join against an all-pairs
// reference: a tag self-join deduplicated by objid ordering, and the
// bipartite photo×tag form, which must see each unordered pair twice.
func TestNeighborJoinMatchesNaive(t *testing.T) {
	const radiusArcmin = 4.0
	e, photo, _ := joinArchive(t, 2000, 9, 2)
	radius := radiusArcmin * sphere.Arcmin

	type pair struct{ a, b catalog.ObjID }
	want := map[pair]bool{}
	for i := range photo {
		for j := i + 1; j < len(photo); j++ {
			if sphere.CosDist(photo[i].Pos(), photo[j].Pos()) >= math.Cos(radius) {
				a, b := photo[i].ObjID, photo[j].ObjID
				if a > b {
					a, b = b, a
				}
				want[pair{a, b}] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate dataset: no close pairs at this radius")
	}

	q := fmt.Sprintf("SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, %g) WHERE a.objid < b.objid", radiusArcmin)
	got := mustCollect(t, e, q)
	if len(got) != len(want) {
		t.Fatalf("neighbor self-join %d pairs, brute force %d", len(got), len(want))
	}
	for _, r := range got {
		p := pair{catalog.ObjID(r.Values[0]), catalog.ObjID(r.Values[1])}
		if !want[p] {
			t.Fatalf("unexpected pair %v", p)
		}
	}

	// Bipartite photo×tag: same geometry, both orientations, identity
	// pairs (the object meeting its own tag) excluded.
	q2 := fmt.Sprintf("SELECT p.objid, t.objid FROM NEIGHBORS(photoobj p, tag t, %g)", radiusArcmin)
	got2 := mustCollect(t, e, q2)
	if len(got2) != 2*len(want) {
		t.Fatalf("bipartite neighbor join %d rows, want %d (2× unordered pairs)", len(got2), 2*len(want))
	}
}

// TestNeighborJoinShardsConsistent: the spatial join must produce the same
// pair set regardless of shard count.
func TestNeighborJoinShardsConsistent(t *testing.T) {
	const q = "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 3) WHERE a.objid < b.objid ORDER BY a.objid"
	e1, _, _ := joinArchive(t, 2000, 10, 1)
	e8, _, _ := joinArchive(t, 2000, 10, 8)
	r1 := mustCollect(t, e1, q)
	r8 := mustCollect(t, e8, q)
	if len(r1) != len(r8) {
		t.Fatalf("1 shard %d pairs, 8 shards %d", len(r1), len(r8))
	}
	key := func(r Result) [2]uint64 { return [2]uint64{uint64(r.Values[0]), uint64(r.Values[1])} }
	s1 := make([][2]uint64, len(r1))
	s8 := make([][2]uint64, len(r8))
	for i := range r1 {
		s1[i], s8[i] = key(r1[i]), key(r8[i])
	}
	less := func(s [][2]uint64) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(s1, less(s1))
	sort.Slice(s8, less(s8))
	for i := range s1 {
		if s1[i] != s8[i] {
			t.Fatalf("pair %d: %v vs %v", i, s1[i], s8[i])
		}
	}
}

// TestNeighborJoinHugeObjIDsExact: the each-pair-once idiom
// (WHERE a.objid < b.objid) must compare object identifiers exactly. IDs
// above 2^53 are indistinguishable as float64 — through the expression
// path both orderings of such a pair evaluate false and the pair vanishes.
func TestNeighborJoinHugeObjIDsExact(t *testing.T) {
	base := uint64(1) << 60 // float64 granularity here is 256
	var photo []catalog.PhotoObj
	for i := 0; i < 6; i++ {
		var p catalog.PhotoObj
		p.ObjID = catalog.ObjID(base + uint64(i))
		// Two tight groups of three, far apart: 3+3 pairs within 1'.
		ra := 180.0 + float64(i%3)*0.002
		if i >= 3 {
			ra += 90
		}
		if err := p.SetPos(ra, 10); err != nil {
			t.Fatal(err)
		}
		photo = append(photo, p)
	}
	tgt, err := load.NewTarget("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo}); err != nil {
		t.Fatal(err)
	}
	tgt.Sort()
	e := &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}
	got := mustCollect(t, e,
		"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 1) WHERE a.objid < b.objid")
	if len(got) != 6 {
		t.Fatalf("each-pair-once join found %d pairs, want 6 (2 groups × 3 pairs)", len(got))
	}
	for _, r := range got {
		if uint64(r.ObjID) < base {
			t.Fatalf("unexpected objid %d", r.ObjID)
		}
	}
}

// TestNeighborJoinPropertyGrid is the zones-join property test: across
// random datasets, radii from 0.5′ to 5°, 1-versus-8 shards and 1, 2 or 4
// probe goroutines, the join must produce exactly the brute-force all-pairs
// set — no pair lost at a zone edge, none reported twice by concurrent
// probes (the poles and the RA seam are TestNeighborJoinPolesAndWraparound's).
func TestNeighborJoinPropertyGrid(t *testing.T) {
	type pair struct{ a, b catalog.ObjID }
	for seed := int64(21); seed <= 23; seed++ {
		e1, photo, _ := joinArchive(t, 1500, seed, 1)
		e8, _, _ := joinArchive(t, 1500, seed, 8)
		for _, radiusArcmin := range []float64{0.5, 3, 12, 300} {
			radius := radiusArcmin * sphere.Arcmin
			cosR := math.Cos(radius)
			want := map[pair]bool{}
			for i := range photo {
				for j := i + 1; j < len(photo); j++ {
					if sphere.CosDist(photo[i].Pos(), photo[j].Pos()) >= cosR {
						a, b := photo[i].ObjID, photo[j].ObjID
						if a > b {
							a, b = b, a
						}
						want[pair{a, b}] = true
					}
				}
			}
			if len(want) == 0 {
				t.Fatalf("seed %d radius %g': degenerate dataset, no pairs", seed, radiusArcmin)
			}
			q := fmt.Sprintf(
				"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, %g) WHERE a.objid < b.objid",
				radiusArcmin)
			for shards, base := range map[int]*Engine{1: e1, 8: e8} {
				for _, workers := range []int{1, 2, 4} {
					e := &Engine{Photo: base.Photo, Tag: base.Tag, Spec: base.Spec, Workers: workers}
					got := mustCollect(t, e, q)
					if len(got) != len(want) {
						t.Fatalf("seed %d radius %g' shards %d workers %d: join %d pairs, brute force %d",
							seed, radiusArcmin, shards, workers, len(got), len(want))
					}
					seen := make(map[pair]bool, len(got))
					for _, r := range got {
						p := pair{catalog.ObjID(r.Values[0]), catalog.ObjID(r.Values[1])}
						if !want[p] || seen[p] {
							t.Fatalf("seed %d radius %g' shards %d workers %d: unexpected or repeated pair %v",
								seed, radiusArcmin, shards, workers, p)
						}
						seen[p] = true
					}
				}
			}
		}
	}
}

// TestNeighborJoinPolesAndWraparound runs the spatial join through the engine
// on the sky's coordinate singularities: a tight triple around each celestial
// pole (where RA degenerates), a pair straddling the RA 0/360 seam on the
// equator and one at dec 80° (where the 2′ circle's ra window, about ±11.5′,
// is far wider than the pair's 0.6′ ra gap), plus a control object pairing
// with nothing. Cartesian geometry must see 8 pairs no matter how the
// containers split them or how many goroutines probe.
func TestNeighborJoinPolesAndWraparound(t *testing.T) {
	fixtures := []struct{ ra, dec float64 }{
		{0, 89.99}, {120, 89.99}, {240, 89.99}, // north polar triple
		{0, -89.99}, {120, -89.99}, {240, -89.99}, // south polar triple
		{359.99, 0}, {0.01, 0}, // RA-wraparound pair
		{180, 45},                  // control: no neighbor within 2'
		{359.995, 80}, {0.005, 80}, // RA-wraparound pair at dec 80°
	}
	var photo []catalog.PhotoObj
	for i, f := range fixtures {
		var p catalog.PhotoObj
		p.ObjID = catalog.ObjID(i + 1)
		if err := p.SetPos(f.ra, f.dec); err != nil {
			t.Fatal(err)
		}
		photo = append(photo, p)
	}
	const q = "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 2) WHERE a.objid < b.objid"
	for _, shards := range []int{1, 8} {
		tgt, err := load.NewTarget("", 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo}); err != nil {
			t.Fatal(err)
		}
		tgt.Sort()
		for _, workers := range []int{1, 2, 4} {
			e := &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec, Workers: workers}
			got := mustCollect(t, e, q)
			if len(got) != 8 {
				t.Fatalf("shards %d workers %d: polar/wraparound join found %d pairs, want 8 (3+3 polar, 2 seam)",
					shards, workers, len(got))
			}
			for _, r := range got {
				if r.Values[0] == 9 || r.Values[1] == 9 {
					t.Fatalf("shards %d workers %d: control object paired: %v", shards, workers, r.Values)
				}
			}
		}
	}
}

// TestNeighborJoinCancellation closes a spatial-join stream mid-production:
// Close must return (no leaked probe or build goroutines — it blocks on the
// tree), and the stream must be marked interrupted so a timeout wrapper can
// tell a cut-short join from a completed one.
func TestNeighborJoinCancellation(t *testing.T) {
	e, _, _ := joinArchive(t, 2000, 16, 2)
	// A tiny batch size forces many channel sends, so the join is still
	// producing when the first batch arrives.
	e.batchRows = 4
	prep, err := query.PrepareString(
		"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 30) WHERE a.objid < b.objid")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Execute(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}
	<-rows.C
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatalf("cancelled join reported error: %v", err)
	}
	if !rows.interrupted.Load() {
		t.Fatal("cancelled mid-stream but not marked interrupted")
	}
}

// TestNeighborJoinEstimateAccuracy pins the pair-density estimator: the
// planner's est_rows for the spatial self-join must land within 4× of the
// actual pair count (the cost model only needs the right order of magnitude,
// but the old constant-selectivity guess was off by 400×).
func TestNeighborJoinEstimateAccuracy(t *testing.T) {
	e, _, _ := joinArchive(t, 8000, 17, 1)
	for _, radiusArcmin := range []float64{0.5, 2} {
		q := fmt.Sprintf(
			"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, %g) WHERE a.objid < b.objid",
			radiusArcmin)
		prep, err := query.PrepareString(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.Plan(prep)
		if err != nil {
			t.Fatal(err)
		}
		node := plan.Describe()
		if node.Op != "neighbor-join" {
			t.Fatalf("radius %g': root op = %q", radiusArcmin, node.Op)
		}
		actual := len(mustCollect(t, e, q))
		if actual == 0 {
			t.Fatalf("radius %g': degenerate dataset, no pairs", radiusArcmin)
		}
		ratio := node.EstRows / float64(actual)
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("radius %g': est_rows %g vs actual %d (ratio %.2f, want within 4×)",
				radiusArcmin, node.EstRows, actual, ratio)
		}
	}
}

// TestJoinColumnsQualified pins the join result schema: qualified canonical
// names, types flowing from each side's table, and the acceptance query's
// "s.z" spelling resolving to the spec redshift.
func TestJoinColumnsQualified(t *testing.T) {
	e, photo, spec := joinArchive(t, 2000, 14, 1)
	prep, err := query.PrepareString("SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18")
	if err != nil {
		t.Fatal(err)
	}
	cols := prep.Columns()
	if len(cols) != 2 {
		t.Fatalf("columns = %+v", cols)
	}
	if cols[0].Name != "p.objid" || cols[0].Type != query.TypeID {
		t.Errorf("col 0 = %+v", cols[0])
	}
	if cols[1].Name != "s.redshift" || cols[1].Type != query.TypeFloat {
		t.Errorf("col 1 = %+v (s.z must resolve to spec redshift)", cols[1])
	}
	rows, err := e.Execute(context.Background(), prep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	bright := map[catalog.ObjID]bool{}
	for i := range photo {
		if photo[i].Mag[catalog.R] < 18 {
			bright[photo[i].ObjID] = true
		}
	}
	for j := range spec {
		if bright[spec[j].ObjID] {
			want++
		}
	}
	if len(res) != want {
		t.Fatalf("acceptance query returned %d rows, want %d", len(res), want)
	}
}

// TestJoinAnalyzeCounters runs a join under EXPLAIN ANALYZE and checks the
// physical plan carries estimates and matching actual counters.
func TestJoinAnalyzeCounters(t *testing.T) {
	e, _, _ := joinArchive(t, 2500, 12, 2)
	prep, err := query.PrepareString(
		"SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 19")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanAnalyze(prep, true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.ExecutePlan(context.Background(), plan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	node := plan.Describe()
	if node.Op != "hash-join" {
		t.Fatalf("root op = %q", node.Op)
	}
	if node.BuildSide == "" || node.On == "" {
		t.Errorf("join node missing build side/on: %+v", node)
	}
	if node.Actual == nil {
		t.Fatal("no actuals after ANALYZE")
	}
	if node.Actual.RowsOut != int64(len(res)) {
		t.Errorf("root actual rows %d, collected %d", node.Actual.RowsOut, len(res))
	}
	if len(node.Children) != 2 {
		t.Fatalf("join has %d children", len(node.Children))
	}
	for _, c := range node.Children {
		if c.Op != "scan" {
			t.Errorf("child op = %q", c.Op)
		}
		if c.Actual == nil {
			t.Fatal("scan child has no actuals")
		}
		if c.Actual.RowsIn <= 0 {
			t.Errorf("scan %s examined %d records", c.Table, c.Actual.RowsIn)
		}
		if c.Access == "" {
			t.Errorf("scan %s has no access path", c.Table)
		}
		if c.EstCost <= 0 {
			t.Errorf("scan %s has no cost estimate", c.Table)
		}
	}
	// The build side must be the child with the smaller cardinality
	// estimate.
	smaller := "left"
	if node.Children[1].EstRows < node.Children[0].EstRows {
		smaller = "right"
	}
	if node.BuildSide != smaller {
		t.Errorf("build side %q, but %q has the smaller estimate (%g vs %g)",
			node.BuildSide, smaller, node.Children[0].EstRows, node.Children[1].EstRows)
	}

	// An unfiltered probe-side join must build on spec — the far smaller
	// table.
	prep2, err := query.PrepareString("SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid")
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := e.Plan(prep2)
	if err != nil {
		t.Fatal(err)
	}
	if n := plan2.Describe(); n.BuildSide != "right" {
		t.Errorf("unfiltered join build side = %q, want right (spec is smaller)", n.BuildSide)
	}

	// The analyzed neighbor join reports one worker per probe goroutine,
	// and its plan line shows the zone height: here wider than the 3′
	// radius, since 3′ zones would outnumber the ~2,400 build rows.
	for _, workers := range []int{1, 2, 4} {
		ew := &Engine{Photo: e.Photo, Tag: e.Tag, Spec: e.Spec, Workers: workers}
		prep, err := query.PrepareString(
			"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 3) WHERE a.objid < b.objid")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ew.PlanAnalyze(prep, true)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ew.ExecutePlan(context.Background(), plan, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		node := plan.Describe()
		if node.Op != "neighbor-join" || node.Actual == nil {
			t.Fatalf("workers %d: root %q, actual %+v", workers, node.Op, node.Actual)
		}
		if node.Actual.Workers != int64(workers) {
			t.Errorf("workers %d: neighbor join reports %d probe workers", workers, node.Actual.Workers)
		}
		if node.Actual.RowsOut != int64(len(res)) || len(res) == 0 {
			t.Errorf("workers %d: actual rows %d, collected %d", workers, node.Actual.RowsOut, len(res))
		}
		line, _, _ := strings.Cut(plan.Text(), "\n")
		if node.ZoneHeightArcmin < 3 {
			t.Errorf("workers %d: zone height %g′ below the 3′ radius", workers, node.ZoneHeightArcmin)
		}
		if !strings.Contains(line, " ZONE ") || !strings.Contains(line, fmt.Sprintf("workers=%d", workers)) {
			t.Errorf("workers %d: neighbor-join plan line %q lacks ZONE or its workers", workers, line)
		}
	}
}

// TestPlanAccessPaths pins the cost-based access path choice: a tight cone
// keeps the HTM path, a predicate-free whole-table scan is a full scan, and
// a provably false predicate plans as empty.
func TestPlanAccessPaths(t *testing.T) {
	e, photo, _ := joinArchive(t, 3000, 13, 1)
	planOf := func(q string) *OpNode {
		prep, err := query.PrepareString(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.Plan(prep)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Describe()
	}
	cone := planOf(fmt.Sprintf("SELECT objid FROM photoobj WHERE CIRCLE(%v, %v, 10)", photo[0].RA, photo[0].Dec))
	if cone.Access != "htm-index" {
		t.Errorf("tight cone access = %q, want htm-index", cone.Access)
	}
	full := planOf("SELECT objid FROM photoobj")
	if full.Access != "full-scan" {
		t.Errorf("whole-table access = %q, want full-scan", full.Access)
	}
	zone := planOf("SELECT objid FROM photoobj WHERE r < 14")
	if zone.Access != "zone-scan" {
		t.Errorf("magnitude cut access = %q, want zone-scan", zone.Access)
	}
	empty := planOf("SELECT objid FROM photoobj WHERE r < 18 AND r > 21")
	if empty.Access != "empty" {
		t.Errorf("contradiction access = %q, want empty", empty.Access)
	}
	// A nearly whole-sky cone crosses the index-versus-scan crossover: the
	// planner must drop the per-record fine filter.
	wide := planOf("SELECT objid FROM photoobj WHERE CIRCLE(180, 0, 10000)")
	if wide.Access == "htm-index" {
		t.Errorf("whole-sky cone kept the index path (access %q)", wide.Access)
	}
}

// TestJoinPlanShape: an equi-join with ORDER BY/LIMIT plans as
// limit → sort → hash-join over a photoobj and a specobj scan, with the
// WHERE clause pushed down to the photoobj side; NEIGHBORS plans as a
// neighbor-join carrying its radius.
func TestJoinPlanShape(t *testing.T) {
	e, _, _ := joinArchive(t, 3000, 13, 1)
	plan := mustPlan(t, e, "SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18 ORDER BY s.z LIMIT 10")
	limit := plan.Describe()
	if limit.Op != "limit" || limit.Limit != 10 {
		t.Fatalf("root = %+v, want limit 10", limit)
	}
	sortNode := limit.Children[0]
	if sortNode.Op != "sort" || sortNode.OrderBy != "s.z" {
		t.Fatalf("sort = %+v, want BY s.z", sortNode)
	}
	j := sortNode.Children[0]
	if j.Op != "hash-join" || len(j.Children) != 2 {
		t.Fatalf("join = %+v", j)
	}
	if j.On != "p.objid = s.objid" {
		t.Errorf("on = %q", j.On)
	}
	if j.Children[0].Table != "photoobj" || j.Children[1].Table != "specobj" {
		t.Errorf("children tables: %q, %q", j.Children[0].Table, j.Children[1].Table)
	}
	if !strings.Contains(j.Children[0].Filter, "p.r") || len(j.Children[0].Bounds) == 0 {
		t.Errorf("left filter = %q, bounds %q (pushdown not visible)", j.Children[0].Filter, j.Children[0].Bounds)
	}
	if text := plan.Text(); !strings.Contains(text, "HASH-JOIN") || !strings.Contains(text, "SCAN photoobj") {
		t.Errorf("explain text:\n%s", text)
	}
	// ORDER BY … LIMIT over a join sorts the whole join: neither side's
	// scan keeps a top-N.
	for _, side := range j.Children {
		if side.Limit != 0 || side.OrderBy != "" {
			t.Errorf("join side %s carries a top-N pushdown: limit %d by %q", side.Table, side.Limit, side.OrderBy)
		}
	}
	if text := plan.Text(); strings.Contains(text, " TOP ") {
		t.Errorf("join plan shows a top-N pushdown:\n%s", text)
	}

	n := mustPlan(t, e, "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 2) WHERE a.objid < b.objid").Describe()
	if n.Op != "neighbor-join" || n.RadiusArcmin != 2 || len(n.Children) != 2 {
		t.Fatalf("neighbors plan = %+v", n)
	}
}

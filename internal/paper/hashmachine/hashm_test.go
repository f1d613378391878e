package hashmachine

import (
	"math"
	"math/rand"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
)

func testTags(t testing.TB, n int, seed int64) []catalog.Tag {
	t.Helper()
	photo, _, err := skygen.GenerateAll(skygen.Default(seed, n), 1)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]catalog.Tag, len(photo))
	for i := range photo {
		tags[i] = catalog.MakeTag(&photo[i])
	}
	return tags
}

func TestHashHomeAndMargins(t *testing.T) {
	tags := testTags(t, 2000, 1)
	cfg := Config{BucketDepth: 6, PairRadius: 2 * sphere.Arcmin}
	buckets, err := Hash(tags, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every object must be Home in exactly one bucket.
	homes := make(map[catalog.ObjID]int)
	copies := make(map[catalog.ObjID]int)
	for bid, entries := range buckets {
		if bid.Depth() != 6 {
			t.Fatalf("bucket %v at depth %d, want 6", bid, bid.Depth())
		}
		for _, e := range entries {
			if e.Home {
				homes[e.Tag.ObjID]++
			} else {
				copies[e.Tag.ObjID]++
			}
		}
	}
	if len(homes) != len(tags) {
		t.Fatalf("%d objects have homes, want %d", len(homes), len(tags))
	}
	for id, n := range homes {
		if n != 1 {
			t.Fatalf("object %d home in %d buckets", id, n)
		}
	}
	// Some objects near edges must have margin copies, but margins must
	// stay a small fraction at this radius/bucket ratio.
	var totalCopies int
	for _, n := range copies {
		totalCopies += n
	}
	if totalCopies == 0 {
		t.Error("no margin copies at all — replication broken")
	}
	if totalCopies > len(tags) {
		t.Errorf("margin blowup: %d copies for %d objects", totalCopies, len(tags))
	}
}

func TestHashFilter(t *testing.T) {
	tags := testTags(t, 1000, 2)
	cfg := Config{PairRadius: sphere.Arcmin}
	onlyGalaxies := func(tg *catalog.Tag) bool { return tg.Class == catalog.ClassGalaxy }
	buckets, err := Hash(tags, cfg, onlyGalaxies)
	if err != nil {
		t.Fatal(err)
	}
	for _, entries := range buckets {
		for _, e := range entries {
			if e.Tag.Class != catalog.ClassGalaxy {
				t.Fatal("filter ignored")
			}
		}
	}
	if _, err := Hash(tags, Config{}, nil); err == nil {
		t.Error("zero PairRadius accepted")
	}
}

func TestPairsMatchNaive(t *testing.T) {
	// The central correctness property: hash-machine pairs must be
	// exactly the all-pairs result — margin replication must not lose
	// cross-boundary pairs, and the exactly-once rule must not duplicate.
	tags := testTags(t, 3000, 3)
	for _, radius := range []float64{10 * sphere.Arcsec, 1 * sphere.Arcmin, 5 * sphere.Arcmin} {
		cfg := Config{BucketDepth: 7, PairRadius: radius}
		buckets, err := Hash(tags, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Pairs(buckets, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := NaivePairs(tags, cfg, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("radius %v: hash machine %d pairs, naive %d", radius, len(got), len(want))
		}
		for i := range got {
			if got[i].A.ObjID != want[i].A.ObjID || got[i].B.ObjID != want[i].B.ObjID {
				t.Fatalf("radius %v: pair %d differs: (%d,%d) vs (%d,%d)", radius, i,
					got[i].A.ObjID, got[i].B.ObjID, want[i].A.ObjID, want[i].B.ObjID)
			}
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				t.Fatalf("pair distance differs")
			}
		}
	}
}

func TestPairsAcrossBucketBoundary(t *testing.T) {
	// Two objects straddling a bucket boundary must still pair. Construct
	// them explicitly on either side of the RA=90 great circle (a face
	// boundary, hence a boundary at every depth).
	var a, b catalog.PhotoObj
	a.ObjID, b.ObjID = 1, 2
	if err := a.SetPos(89.9995, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPos(90.0005, 10); err != nil {
		t.Fatal(err)
	}
	tags := []catalog.Tag{catalog.MakeTag(&a), catalog.MakeTag(&b)}
	cfg := Config{BucketDepth: 8, PairRadius: 10 * sphere.Arcsec}
	buckets, err := Hash(tags, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Pairs(buckets, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("boundary pair not found: %d pairs", len(pairs))
	}
}

func TestColorMatchPredicate(t *testing.T) {
	var a, b catalog.Tag
	a.Mag = [5]float32{20, 19, 18.5, 18.2, 18.0}
	// Same colors, 1.5 mag brighter everywhere (the lens case).
	for i := range b.Mag {
		b.Mag[i] = a.Mag[i] - 1.5
	}
	if !ColorMatch(0.05)(&a, &b) {
		t.Error("identical colors rejected")
	}
	b.Mag[1] += 0.3 // break one color
	if ColorMatch(0.05)(&a, &b) {
		t.Error("different colors accepted")
	}
}

func TestLensWorkload(t *testing.T) {
	// Plant synthetic lens pairs in a background population and verify the
	// machine recovers exactly the planted pairs.
	tags := testTags(t, 2000, 4)
	rng := rand.New(rand.NewSource(99))
	const nLenses = 12
	var next catalog.ObjID = 1 << 50
	var planted []catalog.ObjID
	for i := 0; i < nLenses; i++ {
		base := tags[rng.Intn(len(tags))]
		var img catalog.PhotoObj
		img.ObjID = next
		next++
		// Second image: 3 arcsec away, same colors, 1 mag fainter.
		pos := base.Pos()
		e1 := pos.Orthogonal()
		shifted := pos.Add(e1.Scale(3 * sphere.Arcsec)).Normalize()
		ra, dec := sphere.ToRADec(shifted)
		if err := img.SetPos(ra, dec); err != nil {
			t.Fatal(err)
		}
		for b := range img.Mag {
			img.Mag[b] = base.Mag[b] + 1
		}
		img.Class = catalog.ClassQuasar
		tag := catalog.MakeTag(&img)
		tags = append(tags, tag)
		planted = append(planted, base.ObjID)
	}
	cfg := Config{BucketDepth: 7, PairRadius: 10 * sphere.Arcsec}
	buckets, err := Hash(tags, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := Pairs(buckets, cfg, ColorMatch(0.02))
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[catalog.ObjID]bool)
	for _, p := range pairs {
		found[p.A.ObjID] = true
		found[p.B.ObjID] = true
	}
	for _, id := range planted {
		if !found[id] {
			t.Errorf("planted lens around object %d not recovered", id)
		}
	}
}

func TestFriendsOfFriends(t *testing.T) {
	// Plant two tight groups far apart; FoF must find both, separated.
	var tags []catalog.Tag
	var id catalog.ObjID = 1
	plant := func(ra, dec float64, n int) {
		for i := 0; i < n; i++ {
			var p catalog.PhotoObj
			p.ObjID = id
			id++
			if err := p.SetPos(ra+float64(i)*2e-4, dec); err != nil {
				t.Fatal(err)
			}
			tags = append(tags, catalog.MakeTag(&p))
		}
	}
	plant(150, 40, 6)
	plant(210, 35, 4)
	// Isolated singles.
	plant(30, 50, 1)
	plant(300, 60, 1)

	cfg := Config{BucketDepth: 6, PairRadius: 5 * sphere.Arcsec}
	groups, err := FriendsOfFriends(tags, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("found %d groups, want 2", len(groups))
	}
	if len(groups[0].Members) != 6 || len(groups[1].Members) != 4 {
		t.Errorf("group sizes %d, %d; want 6, 4", len(groups[0].Members), len(groups[1].Members))
	}
	for _, g := range groups {
		if !g.Center.IsUnit(1e-9) {
			t.Error("group center not unit")
		}
		if g.Radius <= 0 || g.Radius > sphere.Arcmin {
			t.Errorf("group radius %v implausible", g.Radius)
		}
	}
}

func TestCrossMatchRecoversTruth(t *testing.T) {
	photo, _, err := skygen.GenerateAll(skygen.Default(5, 4000), 1)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]catalog.Tag, len(photo))
	for i := range photo {
		tags[i] = catalog.MakeTag(&photo[i])
	}
	radio := skygen.RadioCatalog(7, photo, 0.9, 1.0, 0.3)
	matches, err := CrossMatch(tags, radio, 5*sphere.Arcsec, Config{BucketDepth: 7})
	if err != nil {
		t.Fatal(err)
	}
	byRadio := make(map[uint64]Match)
	for _, m := range matches {
		byRadio[m.RadioID] = m
	}
	var truthMatched, correct, falseMatches int
	for i := range radio {
		r := &radio[i]
		m, got := byRadio[r.ID]
		if r.Matched {
			truthMatched++
			if got && m.ObjID == r.TruthID {
				correct++
			}
		} else if got {
			falseMatches++
		}
	}
	if truthMatched == 0 {
		t.Fatal("no truth matches in radio catalog")
	}
	// With 1 arcsec scatter and a 5 arcsec radius, nearly all true
	// counterparts must be recovered correctly.
	if frac := float64(correct) / float64(truthMatched); frac < 0.95 {
		t.Errorf("recovered %.1f%% of true matches, want ≥ 95%%", 100*frac)
	}
	// Spurious sources occasionally land near a real object; just bound it.
	if falseMatches > len(radio)/5 {
		t.Errorf("too many false matches: %d", falseMatches)
	}
}

func BenchmarkHashPhase(b *testing.B) {
	tags := testTags(b, 10000, 1)
	cfg := Config{BucketDepth: 7, PairRadius: 10 * sphere.Arcsec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hash(tags, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairPhase(b *testing.B) {
	tags := testTags(b, 10000, 1)
	cfg := Config{BucketDepth: 7, PairRadius: 10 * sphere.Arcsec}
	buckets, err := Hash(tags, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pairs(buckets, cfg, ColorMatch(0.05)); err != nil {
			b.Fatal(err)
		}
	}
}

package hashm

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/sphere"
)

// zoneFixture scatters n items over the whole sphere and adds the places a
// zone index can get wrong: tight groups at both poles, a group straddling
// the RA 0/360 seam at the equator and at dec ±80° (where the ra window is
// far wider than the ra gap), and a dense patch that puts many items in one
// zone.
func zoneFixture(n int, seed int64, idBase uint64) []Item {
	rng := rand.New(rand.NewSource(seed))
	var items []Item
	add := func(ra, dec float64) {
		items = append(items, Item{
			ID:  catalog.ObjID(idBase + uint64(len(items))),
			Pos: sphere.FromRADec(ra, dec),
			Row: int32(len(items)),
		})
	}
	for range n {
		// Uniform on the sphere: z uniform in [-1, 1].
		add(rng.Float64()*360, sphere.Degrees(math.Asin(2*rng.Float64()-1)))
	}
	for _, dec := range []float64{90, -90} {
		add(0, dec)
		for range 6 {
			add(rng.Float64()*360, dec-math.Copysign(rng.Float64()*0.05, dec))
		}
	}
	for _, dec := range []float64{0, 80, -80} {
		for range 4 {
			add(360-rng.Float64()*0.02, dec+rng.Float64()*0.01)
			add(rng.Float64()*0.02, dec+rng.Float64()*0.01)
		}
	}
	for range 40 {
		add(120+rng.Float64()*0.1, 30+rng.Float64()*0.1)
	}
	return items
}

// bruteMatch is the O(n²) reference: every build row within radius of the
// probe, identity pairs excluded, in row order.
func bruteMatch(build []Item, probe Item, cosR float64) []int32 {
	var rows []int32
	for _, b := range build {
		if b.ID != probe.ID && sphere.CosDist(probe.Pos, b.Pos) >= cosR {
			rows = append(rows, b.Row)
		}
	}
	return rows
}

// parallelRun runs NewZones' units on their own goroutines, as the
// engine's runParallel does.
func parallelRun(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestNeighborZonesMatchBruteForce: for radii from 1″ to 90°, every probe's
// matches must be exactly the brute-force set — no pair lost at a zone edge,
// the RA seam or a pole, none reported twice — whatever the sort split.
func TestNeighborZonesMatchBruteForce(t *testing.T) {
	build := zoneFixture(500, 1, 0)
	probes := zoneFixture(400, 2, 1<<40)
	// Identity collisions: probes sharing a build item's ID and position
	// must not pair with it, though they sit at distance zero.
	for i := 0; i < 30; i++ {
		probes[i].ID, probes[i].Pos = build[3*i].ID, build[3*i].Pos
	}
	// A probe whose circle contains the north pole.
	probes = append(probes, Item{ID: 1 << 50, Pos: sphere.FromRADec(200, 89)})
	radii := []float64{sphere.Arcsec, 30 * sphere.Arcsec, sphere.Arcmin, 4 * sphere.Arcmin,
		sphere.Deg, 2 * sphere.Deg, 5 * sphere.Deg, 30 * sphere.Deg, 89 * sphere.Deg, 90 * sphere.Deg}
	for _, radius := range radii {
		cosR := math.Cos(radius)
		for _, parts := range []int{1, 2, 4} {
			z, err := NewZones(radius, build, parts, parallelRun)
			if err != nil {
				t.Fatal(err)
			}
			pairs := 0
			var got []int32
			for _, p := range probes {
				got = z.Match(got[:0], p.ID, p.Pos)
				slices.Sort(got)
				want := bruteMatch(build, p, cosR)
				if !slices.Equal(got, want) {
					t.Fatalf("radius %g″ parts %d probe %d at %v: rows %v, brute force %v",
						radius/sphere.Arcsec, parts, p.ID, p.Pos, got, want)
				}
				pairs += len(want)
			}
			if pairs == 0 {
				t.Fatalf("radius %g″: degenerate fixture, no pairs", radius/sphere.Arcsec)
			}
		}
	}
}

// TestNeighborZonesEdgeBuilds: an empty build matches nothing, a single-row
// build matches its one row, and a tiny radius over a small build never
// allocates more zones than rows.
func TestNeighborZonesEdgeBuilds(t *testing.T) {
	probe := sphere.FromRADec(10, 10)
	empty, err := NewZones(sphere.Arcsec, nil, 4, parallelRun)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Match(nil, 1, probe); len(got) != 0 {
		t.Fatalf("empty build matched %v", got)
	}

	one := []Item{{ID: 7, Pos: sphere.FromRADec(10, 10.0001), Row: 0}}
	z, err := NewZones(sphere.Arcsec, one, 4, parallelRun)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.alpha) != 1 {
		t.Fatalf("single-row build has %d zones, want 1", len(z.alpha))
	}
	if got := z.Match(nil, 1, probe); !slices.Equal(got, []int32{0}) {
		t.Fatalf("single-row build matched %v, want [0]", got)
	}
	if got := z.Match(nil, 7, probe); len(got) != 0 {
		t.Fatalf("identity probe matched %v", got)
	}

	small := zoneFixture(20, 3, 0)
	z, err = NewZones(sphere.Arcsec, small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.alpha) > len(small) {
		t.Fatalf("1″ over %d rows allocated %d zones", len(small), len(z.alpha))
	}
	if z.h < math.Pi/float64(len(small)) {
		t.Fatalf("zone height %g below π/n = %g", z.h, math.Pi/float64(len(small)))
	}
	if big, _ := NewZones(sphere.Arcmin, zoneFixture(50000, 4, 0), 1, nil); big.h != sphere.Arcmin {
		t.Fatalf("1′ over 50k rows: zone height %g, want the radius", big.h)
	}
}

// TestNeighborZonesRejectsBadRadius: radii outside (0, π/2] are an error.
func TestNeighborZonesRejectsBadRadius(t *testing.T) {
	for _, r := range []float64{0, -1, math.Pi/2 + 1e-9, math.NaN()} {
		if _, err := NewZones(r, nil, 1, nil); err == nil {
			t.Errorf("radius %g accepted", r)
		}
	}
}

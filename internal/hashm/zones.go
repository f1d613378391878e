package hashm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"sdss/internal/catalog"
	"sdss/internal/sphere"
)

// Zones is the pair index of the NEIGHBORS join: the zones algorithm of
// Gray, Nieto-Santisteban and Szalay (MSR-TR-2006-52). The build side is cut
// into declination zones of height h ≥ radius and each zone is sorted by
// right ascension. A probe visits the zones its circle's declination band
// spans and, in each, binary-searches the ra window the circle can reach.
// There are no trixels, no per-item coverage and no replication: every build
// item is stored once, and candidates are decided by the exact dot-product
// test. A self-join needs no probes at all: SelfPairs merges each zone with
// itself and with the zones above it. Build with NewZones; Match and
// SelfPairs are then safe for concurrent use.
type Zones struct {
	radius, cosR, h float64
	// Zone k holds ents[start[k]:start[k+1]], sorted by (ra, row).
	start []int32
	// alpha[k] bounds |Δra| between any item of zone k and any point within
	// radius of it; π means the whole zone (the zone comes within radius of
	// a pole).
	alpha []float64
	ents  []zoneEntry
}

type zoneEntry struct {
	ra  float64 // radians in [0, 2π]
	pos sphere.Vec3
	id  catalog.ObjID
	row int32
}

// zoneSlack (radians, about 0.2 milliarcseconds) widens the declination
// band and every ra window, so rounding in asin/atan2 cannot drop a pair at
// exactly the radius; the exact test decides every candidate.
const zoneSlack = 1e-9

// ZoneHeight is the zone height for a radius over n build items: the radius
// itself, widened only as far as needed for there never to be more zones
// than items (one zone for an empty build), and never taller than the
// sphere.
func ZoneHeight(radius float64, n int) float64 {
	return min(max(radius, math.Pi/float64(max(n, 1))), math.Pi)
}

// NewZones indexes items for pair search within radius radians, in (0, π/2].
// It finds every item's zone and ra in up to parts slices of the input,
// counting-sorts the items by zone, then sorts every zone by (ra, row) in up
// to parts runs of consecutive zones of about equal item count. Both passes
// go through run, which must call fn(0), …, fn(n-1) — concurrently or not —
// and return once all have returned; a nil run, or parts ≤ 1, does the work
// on the calling goroutine. The index keeps no reference to items.
func NewZones(radius float64, items []Item, parts int, run func(n int, fn func(int))) (*Zones, error) {
	if !(radius > 0 && radius <= math.Pi/2) {
		return nil, fmt.Errorf("hashm: join radius must be in (0, π/2] radians, got %g", radius)
	}
	n := len(items)
	h := ZoneHeight(radius, n)
	nz := min(int(math.Ceil(math.Pi/h)), max(n, 1))
	z := &Zones{
		radius: radius, cosR: math.Cos(radius), h: h,
		start: make([]int32, nz+1),
		alpha: make([]float64, nz),
		ents:  make([]zoneEntry, n),
	}
	parts = max(min(parts, n), 1)
	if run == nil || parts == 1 {
		parts, run = 1, func(n int, fn func(int)) {
			for i := range n {
				fn(i)
			}
		}
	}

	// Every item's zone and ra, in parts slices of the input; then a
	// counting sort by zone: count, prefix-sum, place in input order.
	zoneOf := make([]int32, n)
	ra := make([]float64, n)
	run(parts, func(p int) {
		for i := n * p / parts; i < n*(p+1)/parts; i++ {
			zoneOf[i] = int32(z.zone(decOf(items[i].Pos)))
			ra[i] = raOf(items[i].Pos)
		}
	})
	for _, k := range zoneOf {
		z.start[k+1]++
	}
	for k := 1; k <= nz; k++ {
		z.start[k] += z.start[k-1]
	}
	next := slices.Clone(z.start[:nz])
	for i := range items {
		it := &items[i]
		k := zoneOf[i]
		z.ents[next[k]] = zoneEntry{ra: ra[i], pos: it.Pos, id: it.ID, row: it.Row}
		next[k]++
	}

	// The ra half-window of every occupied zone, from its largest |dec|:
	// a point within radius of an item at dec δ is at most
	// asin(sin r / cos δ) away in ra, and that grows with |δ|.
	for k := range z.alpha {
		if z.start[k] == z.start[k+1] {
			continue // no probe looks at an empty zone's window
		}
		lo := -math.Pi/2 + float64(k)*h
		hi := lo + h
		if k == nz-1 {
			hi = math.Pi / 2
		}
		if d := max(math.Abs(lo), math.Abs(hi)); d+radius+zoneSlack >= math.Pi/2 {
			z.alpha[k] = math.Pi
		} else {
			z.alpha[k] = math.Asin(math.Sin(radius)/math.Cos(d)) + zoneSlack
		}
	}

	// Sort each zone by (ra, row), in runs of consecutive zones.
	cuts := z.Cuts(parts)
	run(len(cuts)-1, func(p int) {
		for k := cuts[p]; k < cuts[p+1]; k++ {
			slices.SortFunc(z.ents[z.start[k]:z.start[k+1]], func(a, b zoneEntry) int {
				if c := cmp.Compare(a.ra, b.ra); c != 0 {
					return c
				}
				return cmp.Compare(a.row, b.row)
			})
		}
	})
	return z, nil
}

// Cuts splits the zones into up to parts runs of consecutive zones of about
// equal item count: run p is zones cuts[p] to cuts[p+1]-1. There is at
// least one run and never more runs than zones.
func (z *Zones) Cuts(parts int) []int {
	nz, n := len(z.alpha), len(z.ents)
	parts = max(min(parts, nz), 1)
	cuts := make([]int, parts+1)
	for p := 1; p < parts; p++ {
		target := int32(n * p / parts)
		cuts[p] = sort.Search(nz, func(k int) bool { return z.start[k] >= target })
	}
	cuts[parts] = nz
	return cuts
}

// decOf is a unit vector's declination in radians.
func decOf(v sphere.Vec3) float64 {
	return math.Asin(max(-1, min(1, v.Z)))
}

// raOf is a unit vector's right ascension in radians, in [0, 2π].
func raOf(v sphere.Vec3) float64 {
	ra := math.Atan2(v.Y, v.X)
	if ra < 0 {
		ra += 2 * math.Pi
	}
	return ra
}

// zone maps a declination to its zone, clamped to the index's zones (the
// last zone reaches the north pole).
func (z *Zones) zone(dec float64) int {
	k := int(math.Floor((dec + math.Pi/2) / z.h))
	return max(0, min(k, len(z.alpha)-1))
}

// Match appends to dst the row of every indexed item within radius of pos,
// except items whose ID is id (identity pairs), and returns the extended
// slice. Rows come zone by zone, each zone in ra order.
func (z *Zones) Match(dst []int32, id catalog.ObjID, pos sphere.Vec3) []int32 {
	dec, ra := decOf(pos), raOf(pos)
	last := z.zone(dec + z.radius + zoneSlack)
	for k := z.zone(dec - z.radius - zoneSlack); k <= last; k++ {
		ents := z.ents[z.start[k]:z.start[k+1]]
		if len(ents) == 0 {
			continue
		}
		lo, hi, lo2, hi2 := raWindows(ra, z.alpha[k])
		dst = z.window(dst, ents, lo, hi, id, pos)
		if lo2 <= hi2 {
			dst = z.window(dst, ents, lo2, hi2, id, pos)
		}
	}
	return dst
}

// raWindows is the ra window of half-width a around ra, across the 0/2π
// seam: the interval [lo, hi], and a second interval [lo2, hi2] that is
// empty (lo2 > hi2) unless the window crosses the seam. When a ≥ π the
// first interval is the whole circle. For a < π the two are disjoint, so
// no entry lies in both.
func raWindows(ra, a float64) (lo, hi, lo2, hi2 float64) {
	lo, hi, lo2, hi2 = ra-a, ra+a, inf, -inf
	switch {
	case a >= math.Pi:
		lo, hi = -inf, inf
	case lo < 0: // the window crosses ra 0 from above
		lo2, hi2 = lo+2*math.Pi, inf
	case hi > 2*math.Pi: // the window crosses ra 2π from below
		lo2, hi2 = -inf, hi-2*math.Pi
	}
	return lo, hi, lo2, hi2
}

// inf is a variable, not math.Inf calls, so that raWindows stays within
// the inliner's budget: it runs for every row and zone a merge visits.
var inf = math.Inf(1)

// search is the index of the first entry of ents, sorted by ra, whose ra
// is at least lo.
func search(ents []zoneEntry, lo float64) int {
	i, j := 0, len(ents)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ents[m].ra < lo {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// window tests the entries of one zone whose ra lies in [lo, hi].
func (z *Zones) window(dst []int32, ents []zoneEntry, lo, hi float64, id catalog.ObjID, pos sphere.Vec3) []int32 {
	for i := search(ents, lo); i < len(ents) && ents[i].ra <= hi; i++ {
		e := &ents[i]
		if e.id != id && sphere.CosDist(pos, e.pos) >= z.cosR {
			dst = append(dst, e.row)
		}
	}
	return dst
}

// SelfPairs calls fn(a, b) once for every unordered pair of indexed items
// within radius of each other whose lower-zone item lies in zones k0 to
// k1-1 (a pair within one zone counts for that zone), except pairs of equal
// ID, and returns true; it stops and returns false as soon as fn does. This
// is the zones algorithm's merge: each zone is paired with itself and with
// every zone above it that its highest item can reach, and every item of
// the lower zone tests the upper zone's entries in its ra window of
// ±min(α) — each zone's half-window bounds every pair's |Δra| from its own
// side, so the narrower one does too. Ranges from Cuts cover every pair
// exactly once, so they can run concurrently.
func (z *Zones) SelfPairs(k0, k1 int, fn func(a, b int32) bool) bool {
	for k := k0; k < k1; k++ {
		lower := z.ents[z.start[k]:z.start[k+1]]
		if len(lower) == 0 {
			continue
		}
		top := &lower[0]
		for i := range lower {
			if lower[i].pos.Z > top.pos.Z {
				top = &lower[i]
			}
		}
		last := z.zone(decOf(top.pos) + z.radius + zoneSlack)
		for j := k; j <= last; j++ {
			upper := z.ents[z.start[j]:z.start[j+1]]
			if len(upper) > 0 && !z.merge(lower, upper, j == k, min(z.alpha[k], z.alpha[j]), fn) {
				return false
			}
		}
	}
	return true
}

// merge tests every item of a against the entries of b in its raWindows
// of half-width w. The items of a come in ra order, so the first window's
// low end only grows and a sliding pointer finds it; the seam window is
// binary-searched. With self (a and b are one zone) an item tests only the
// entries after it, all at or above its ra: the windows are symmetric, so
// each unordered pair is tested once, from its earlier entry.
func (z *Zones) merge(a, b []zoneEntry, self bool, w float64, fn func(a, b int32) bool) bool {
	s := 0 // first entry of b at or above the first window's low end
	for i := range a {
		x := &a[i]
		lo, hi, lo2, hi2 := raWindows(x.ra, w)
		m, ents := 0, b
		if self {
			ents = b[i+1:]
		} else {
			for s < len(b) && b[s].ra < lo {
				s++
			}
			m = s
		}
		for ; m < len(ents) && ents[m].ra <= hi; m++ {
			if !z.test(x, &ents[m], fn) {
				return false
			}
		}
		if lo2 <= hi2 {
			for m := search(ents, lo2); m < len(ents) && ents[m].ra <= hi2; m++ {
				if !z.test(x, &ents[m], fn) {
					return false
				}
			}
		}
	}
	return true
}

// test calls fn on the pair (x, y) if it is within radius and not an
// identity pair, and reports whether to go on.
func (z *Zones) test(x, y *zoneEntry, fn func(a, b int32) bool) bool {
	return x.id == y.id || sphere.CosDist(x.pos, y.pos) < z.cosR || fn(x.row, y.row)
}

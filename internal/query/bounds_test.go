package query

import (
	"math"
	"testing"
)

// boundsFor parses and analyzes a WHERE clause against the tag table and
// extracts its bounds.
func boundsFor(t *testing.T, where string) *Bounds {
	t.Helper()
	stmt, err := Parse("SELECT objid FROM tag WHERE " + where)
	if err != nil {
		t.Fatalf("parse %q: %v", where, err)
	}
	if err := Analyze(stmt); err != nil {
		t.Fatalf("analyze %q: %v", where, err)
	}
	return ExtractBounds(stmt.Select.Where)
}

func wantInterval(t *testing.T, b *Bounds, attr AttrID, want Interval) {
	t.Helper()
	if b == nil {
		t.Fatalf("bounds nil, want %v for attr %d", want, attr)
	}
	got, ok := b.ByAttr[attr]
	if !ok {
		t.Fatalf("attr %d unconstrained, want %v (have %v)", attr, want, b.ByAttr)
	}
	if got != want {
		t.Fatalf("attr %d bounds = %v, want %v", attr, got, want)
	}
}

func TestBoundsSimpleComparisons(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		where string
		want  Interval
	}{
		{"r < 18", Interval{Lo: -inf, Hi: 18, HiOpen: true}},
		{"r <= 18", Interval{Lo: -inf, Hi: 18}},
		{"r > 18", Interval{Lo: 18, Hi: inf, LoOpen: true}},
		{"r >= 18", Interval{Lo: 18, Hi: inf}},
		{"r = 18", Interval{Lo: 18, Hi: 18}},
		{"18 > r", Interval{Lo: -inf, Hi: 18, HiOpen: true}},
		{"18 <= r", Interval{Lo: 18, Hi: inf}},
		{"r < 17 + 1", Interval{Lo: -inf, Hi: 18, HiOpen: true}},
	}
	for _, c := range cases {
		wantInterval(t, boundsFor(t, c.where), TagR, c.want)
	}
}

func TestBoundsUnconstrainedShapes(t *testing.T) {
	for _, where := range []string{
		"r != 18",             // single excluded point: not an interval
		"u - g > 1",           // arithmetic over attributes
		"r < u",               // attr vs attr
		"CIRCLE(185, 32, 10)", // purely spatial
	} {
		if b := boundsFor(t, where); b != nil {
			t.Errorf("%q: bounds = %+v, want nil", where, b)
		}
	}
}

func TestBoundsAndIntersects(t *testing.T) {
	b := boundsFor(t, "r < 18 AND r >= 14 AND g < 20")
	wantInterval(t, b, TagR, Interval{Lo: 14, Hi: 18, HiOpen: true})
	wantInterval(t, b, TagG, Interval{Lo: math.Inf(-1), Hi: 20, HiOpen: true})
}

func TestBoundsOrHull(t *testing.T) {
	b := boundsFor(t, "r < 14 OR r > 20")
	// Hull: everything outside (14, 20) collapses to the full line minus
	// nothing representable — the hull is (-inf, inf)? No: hull of
	// (-inf,14) and (20,inf) is (-inf, inf); such bounds are dropped as
	// unconstrained only if infinite on both sides — verify the hull is
	// correctly infinite (no false pruning).
	if b != nil {
		iv := b.ByAttr[TagR]
		if !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
			t.Fatalf("hull = %v, want (-inf, inf)", iv)
		}
	}
	// A hull that genuinely narrows: both branches bounded.
	b = boundsFor(t, "(r >= 14 AND r < 15) OR (r > 19 AND r <= 20)")
	wantInterval(t, b, TagR, Interval{Lo: 14, Hi: 20})
}

func TestBoundsOrDropsOneSidedAttrs(t *testing.T) {
	// g is constrained only on the left branch: OR must drop it.
	b := boundsFor(t, "(g < 20 AND r < 18) OR r < 15")
	if b == nil {
		t.Fatal("bounds nil")
	}
	if _, ok := b.ByAttr[TagG]; ok {
		t.Fatalf("g must be unconstrained under OR, got %v", b.ByAttr[TagG])
	}
	wantInterval(t, b, TagR, Interval{Lo: math.Inf(-1), Hi: 18, HiOpen: true})
}

func TestBoundsNotOfOpenInterval(t *testing.T) {
	// NOT (r < 18) ⇒ r >= 18, and NaN rows satisfy it (the inner
	// comparison is false on NaN).
	b := boundsFor(t, "NOT (r < 18)")
	wantInterval(t, b, TagR, Interval{Lo: 18, Hi: math.Inf(1), AllowNaN: true})

	// NOT (r >= 18) ⇒ r < 18 (+NaN).
	b = boundsFor(t, "NOT (r >= 18)")
	wantInterval(t, b, TagR, Interval{Lo: math.Inf(-1), Hi: 18, HiOpen: true, AllowNaN: true})

	// Double negation restores the original, without NaN admission.
	b = boundsFor(t, "NOT (NOT (r < 18))")
	wantInterval(t, b, TagR, Interval{Lo: math.Inf(-1), Hi: 18, HiOpen: true})

	// De Morgan: NOT (r < 14 OR r > 20) ⇒ r >= 14 AND r <= 20 (+NaN on
	// both sides, but intersect requires both, so NaN stays admitted).
	b = boundsFor(t, "NOT (r < 14 OR r > 20)")
	wantInterval(t, b, TagR, Interval{Lo: 14, Hi: 20, AllowNaN: true})

	// NOT (r != 18) ⇒ r = 18 exactly; NaN does NOT satisfy it (NaN != 18
	// is true, so its negation is false).
	b = boundsFor(t, "NOT (r != 18)")
	wantInterval(t, b, TagR, Interval{Lo: 18, Hi: 18})
}

func TestBoundsClassLiteralEquality(t *testing.T) {
	// The analyzer rewrites class = 'GALAXY' to a numeric comparison, so
	// the bounds see a plain equality on the class code.
	b := boundsFor(t, "class = 'GALAXY'")
	wantInterval(t, b, TagClass, Interval{Lo: 2, Hi: 2})
}

func TestBoundsMixedSpatialScalar(t *testing.T) {
	// The spatial predicate contributes nothing; the scalar side survives.
	b := boundsFor(t, "CIRCLE(185, 32, 10) AND r < 19")
	wantInterval(t, b, TagR, Interval{Lo: math.Inf(-1), Hi: 19, HiOpen: true})
	if len(b.ByAttr) != 1 {
		t.Fatalf("want exactly one constrained attr, got %v", b.ByAttr)
	}
}

func TestBoundsAlwaysFalse(t *testing.T) {
	for _, where := range []string{
		"r < 18 AND r > 21",
		"r < 18 AND r = 21",
		"class = 'STAR' AND class = 'GALAXY'",
		"r < 14 AND (r > 20 OR r = 30)",
	} {
		b := boundsFor(t, where)
		if b == nil || !b.Never {
			t.Errorf("%q: want Never, got %+v", where, b)
		}
	}
	// ... but NOT when a negated side admits NaN: NOT(r < 21) AND r < 18
	// has an empty real interval yet still matches records with NaN r?
	// No — the conjunction needs both sides, and r < 18 rejects NaN, so
	// AllowNaN is false and the predicate is Never.
	b := boundsFor(t, "NOT (r < 21) AND r < 18")
	if b == nil || !b.Never {
		t.Errorf("NOT(r<21) AND r<18: want Never, got %+v", b)
	}
	// Two negated sides both admit NaN: the empty real interval survives
	// with AllowNaN, so the predicate is NOT provably false.
	b = boundsFor(t, "NOT (r < 21) AND NOT (r > 18)")
	if b == nil || b.Never {
		t.Errorf("want NaN-satisfiable bounds, got %+v", b)
	}
	iv := b.ByAttr[TagR]
	if !iv.AllowNaN || !iv.EmptyReal() {
		t.Errorf("want empty real interval with AllowNaN, got %v", iv)
	}
}

func TestBoundsNeverAbsorbsInOr(t *testing.T) {
	b := boundsFor(t, "(r < 18 AND r > 21) OR g < 20")
	if b == nil || b.Never {
		t.Fatalf("OR with one false branch must keep the other, got %+v", b)
	}
	wantInterval(t, b, TagG, Interval{Lo: math.Inf(-1), Hi: 20, HiOpen: true})
}

func TestBoundsAdmitZone(t *testing.T) {
	mkZone := func(lo, hi float64, nan bool) ([]float64, []float64, []bool) {
		n := NumAttrs(TableTag)
		min := make([]float64, n)
		max := make([]float64, n)
		hasNaN := make([]bool, n)
		for i := range min {
			min[i], max[i] = math.Inf(-1), math.Inf(1)
		}
		min[TagR], max[TagR], hasNaN[TagR] = lo, hi, nan
		return min, max, hasNaN
	}
	cases := []struct {
		where  string
		lo, hi float64
		nan    bool
		admit  bool
	}{
		{"r < 18", 18.5, 22, false, false}, // zone entirely above the cut
		{"r < 18", 17, 22, false, true},
		{"r < 18", 18, 22, false, false}, // zone min == open bound
		{"r <= 18", 18, 22, false, true}, // closed bound touches
		{"r > 20", 14, 20, false, false}, // zone max == open bound
		{"r >= 20", 14, 20, false, true},
		{"r = 19", 14, 18, false, false},
		{"r = 19", 14, 19, false, true},
		{"r < 18", math.Inf(1), math.Inf(-1), true, false}, // all-NaN zone
		{"NOT (r < 18)", 14, 16, true, true},               // NaN admits
		{"NOT (r < 18)", 14, 16, false, false},
		{"r < 18 AND r > 21", 14, 22, false, false}, // Never prunes all
	}
	// The planner prunes a container exactly when Fraction is 0.
	for _, c := range cases {
		zf := boundsFor(t, c.where).CompileZone()
		min, max, hasNaN := mkZone(c.lo, c.hi, c.nan)
		if got := zf.Fraction(min, max, hasNaN) != 0; got != c.admit {
			t.Errorf("%q on zone [%g,%g] nan=%v: admit=%v, want %v",
				c.where, c.lo, c.hi, c.nan, got, c.admit)
		}
	}
	// Nil bounds compile to no filter: the planner admits every zone.
	var nilB *Bounds
	if nilB.CompileZone() != nil {
		t.Error("nil bounds must compile to a nil ZoneFilter")
	}
}

func TestBoundsFlagTestUnconstrained(t *testing.T) {
	// Flag tests run on photoobj (tag has no flags) and constrain nothing;
	// the conjunct's scalar side still prunes.
	stmt, err := Parse("SELECT objid FROM photoobj WHERE FLAG('SATURATED') AND r < 18")
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(stmt); err != nil {
		t.Fatal(err)
	}
	b := ExtractBounds(stmt.Select.Where)
	if b == nil {
		t.Fatal("bounds nil")
	}
	wantInterval(t, b, PhotoR, Interval{Lo: math.Inf(-1), Hi: 18, HiOpen: true})
}

package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is a conservative range of values one attribute may take in any
// record satisfying a predicate. Lo/Hi are ±Inf when unbounded; LoOpen /
// HiOpen mark strict endpoints ("r < 18" excludes 18). AllowNaN records that
// a NaN value can also satisfy the predicate: negated comparisons admit NaN
// (NOT (r < 18) is true when r is NaN, because the comparison is false), so
// containers holding NaN values must survive pruning on that attribute.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
	AllowNaN       bool
}

// fullInterval admits every real value.
func fullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// EmptyReal reports whether no real (non-NaN) value lies in the interval.
func (iv Interval) EmptyReal() bool {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return true // a NaN endpoint admits no real value
	}
	if iv.Lo > iv.Hi {
		return true
	}
	return iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen)
}

// intersect narrows the interval to values admitted by both sides: the AND
// of two constraints on the same attribute. NaN survives only if both sides
// admit it.
func (iv Interval) intersect(o Interval) Interval {
	// Endpoints are never NaN (the interval builder rejects NaN literals),
	// but one slipping through would lose every comparison below and
	// silently corrupt the result; fall back to the clean side, which can
	// only widen the interval (pruning stays sound).
	if math.IsNaN(o.Lo) || math.IsNaN(o.Hi) {
		return iv
	}
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return o
	}
	out := iv
	if o.Lo > out.Lo || (o.Lo == out.Lo && o.LoOpen) {
		out.Lo, out.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi < out.Hi || (o.Hi == out.Hi && o.HiOpen) {
		out.Hi, out.HiOpen = o.Hi, o.HiOpen
	}
	out.AllowNaN = iv.AllowNaN && o.AllowNaN
	return out
}

// union widens the interval to the hull of both sides: the OR of two
// constraints on the same attribute. NaN survives if either side admits it.
func (iv Interval) union(o Interval) Interval {
	// As in intersect: a NaN endpoint cannot be ordered, so widen to the
	// full interval rather than compute a garbage hull.
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || math.IsNaN(o.Lo) || math.IsNaN(o.Hi) {
		out := fullInterval()
		out.AllowNaN = true
		return out
	}
	out := iv
	if o.Lo < out.Lo || (o.Lo == out.Lo && !o.LoOpen) {
		out.Lo, out.LoOpen = o.Lo, o.LoOpen
	}
	if o.Hi > out.Hi || (o.Hi == out.Hi && !o.HiOpen) {
		out.Hi, out.HiOpen = o.Hi, o.HiOpen
	}
	out.AllowNaN = iv.AllowNaN || o.AllowNaN
	return out
}

// admits reports whether a container whose attribute spans [zoneLo, zoneHi]
// (NaN values excluded; zoneLo > zoneHi when every value is NaN) with
// hasNaN marking NaN presence could hold a satisfying record.
func (iv Interval) admits(zoneLo, zoneHi float64, hasNaN bool) bool {
	if iv.AllowNaN && hasNaN {
		return true
	}
	if math.IsNaN(zoneLo) || math.IsNaN(zoneHi) {
		return true // corrupt zone stats prove nothing; keep the container
	}
	if zoneLo > zoneHi {
		// No non-NaN values at all; only a NaN-admitting interval matches.
		return false
	}
	if iv.EmptyReal() {
		return false
	}
	if zoneHi < iv.Lo || (zoneHi == iv.Lo && iv.LoOpen) {
		return false
	}
	if zoneLo > iv.Hi || (zoneLo == iv.Hi && iv.HiOpen) {
		return false
	}
	return true
}

// String renders the interval in range notation.
func (iv Interval) String() string {
	var b strings.Builder
	if iv.LoOpen {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	fmt.Fprintf(&b, "%g, %g", iv.Lo, iv.Hi)
	if iv.HiOpen {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	if iv.AllowNaN {
		b.WriteString("+nan")
	}
	return b.String()
}

// Bounds is the result of predicate-bounds analysis: for each constrained
// attribute, a conservative interval every satisfying record must fall in.
// Like region extraction, the analysis only ever widens — the true result
// set is always a subset of what the bounds admit — so pruning containers
// whose zone cannot intersect the bounds never loses rows.
type Bounds struct {
	ByAttr map[AttrID]Interval
	// Never marks a predicate that is provably false for every record
	// (e.g. "r < 18 AND r > 21"): the scan can answer empty without
	// touching a single container.
	Never bool
}

// Constrained reports whether the bounds can prune anything.
func (b *Bounds) Constrained() bool {
	return b != nil && (b.Never || len(b.ByAttr) > 0)
}

// fractionIn estimates what fraction of a container's values on one
// attribute fall inside the interval, assuming a uniform spread over the
// container's [zoneLo, zoneHi] span — the coarse selectivity estimate the
// cost-based planner feeds on. It is an estimate, not a bound: 0 means "the
// zone proves nothing survives", 1 "the whole zone lies inside".
func (iv Interval) fractionIn(zoneLo, zoneHi float64, hasNaN bool) float64 {
	if !iv.admits(zoneLo, zoneHi, hasNaN) {
		return 0
	}
	if math.IsNaN(zoneLo) || math.IsNaN(zoneHi) {
		return 1 // corrupt zone stats: no basis for a selectivity estimate
	}
	if zoneLo > zoneHi {
		return 1 // all-NaN container admitted via AllowNaN
	}
	width := zoneHi - zoneLo
	if width <= 0 || math.IsInf(width, 0) {
		// Point zones (or degenerate spans): the admit test already said
		// records can survive.
		return 1
	}
	lo := math.Max(iv.Lo, zoneLo)
	hi := math.Min(iv.Hi, zoneHi)
	if hi < lo {
		// The admit test passed with a disjoint real range, so only the
		// zone's NaN records can satisfy (AllowNaN): a sliver, not nothing
		// — 0 is reserved for "the zone proves nothing survives".
		return 0.01
	}
	if iv.Lo == iv.Hi {
		// Point predicates (attr = c): a uniform model gives measure zero;
		// use a small floor so equality cuts still rank as selective
		// without estimating empty.
		return 0.05
	}
	f := (hi - lo) / width
	if f < 0.01 {
		f = 0.01 // admitted containers always contribute something
	}
	if f > 1 {
		f = 1
	}
	return f
}

// ZoneFilter is a Bounds compiled for the planner's per-container loop: the
// constrained intervals flattened out of the attribute map once per query,
// so the prune-and-estimate check that runs for every candidate container
// iterates a short slice instead of re-walking a map thousands of times per
// plan.
type ZoneFilter struct {
	never bool
	preds []zoneInterval
}

type zoneInterval struct {
	attr int
	iv   Interval
}

// CompileZone flattens the bounds into a ZoneFilter, or nil when nothing is
// constrained (callers skip zone checks entirely).
func (b *Bounds) CompileZone() *ZoneFilter {
	if !b.Constrained() {
		return nil
	}
	f := &ZoneFilter{never: b.Never}
	for attr, iv := range b.ByAttr {
		f.preds = append(f.preds, zoneInterval{attr: int(attr), iv: iv})
	}
	sort.Slice(f.preds, func(i, j int) bool { return f.preds[i].attr < f.preds[j].attr })
	return f
}

// Fraction estimates the fraction of a container's records that satisfy
// the bounds, given the container's per-attribute min/max/NaN zone
// statistics (indexed by AttrID), by multiplying the per-attribute
// fractions (attribute independence assumed). It is 0 exactly when the
// zone proves no record can satisfy, since fractionIn floors admitted
// attributes at 0.01: the planner prunes on 0 and feeds the rest to its
// cardinality estimates. Attributes beyond the zone's width are
// conservatively admitted.
func (f *ZoneFilter) Fraction(min, max []float64, hasNaN []bool) float64 {
	if f.never {
		return 0
	}
	est := 1.0
	for i := range f.preds {
		p := &f.preds[i]
		if p.attr >= len(min) {
			continue
		}
		est *= p.iv.fractionIn(min[p.attr], max[p.attr], hasNaN[p.attr])
		if est == 0 {
			return 0
		}
	}
	return est
}

// Strings renders the bounds as "attr ∈ interval" lines, sorted by
// attribute, for EXPLAIN output.
func (b *Bounds) Strings(t Table) []string {
	if b == nil {
		return nil
	}
	if b.Never {
		return []string{"never (predicate is always false)"}
	}
	attrs := make([]AttrID, 0, len(b.ByAttr))
	for a := range b.ByAttr {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = fmt.Sprintf("%s ∈ %s", AttrName(t, a), b.ByAttr[a])
	}
	return out
}

// ExtractBounds derives the per-attribute value bounds implied by an
// analyzed WHERE clause, or nil if the clause constrains nothing. Analysis
// is conservative:
//
//   - attr-versus-constant comparisons yield an interval (the non-attribute
//     side may be any constant-foldable expression);
//   - AND intersects the children's intervals; OR takes the hull, and only
//     for attributes constrained on both sides;
//   - NOT is pushed down by De Morgan; negated comparisons flip and admit
//     NaN (the un-negated comparison is false on NaN, so NOT matches it);
//   - spatial predicates, flag tests, arithmetic over attributes, and
//     anything else contribute nothing (unconstrained).
func ExtractBounds(e Expr) *Bounds {
	b := extractBounds(e, false)
	if b != nil && !b.Constrained() {
		return nil
	}
	return b
}

func extractBounds(e Expr, neg bool) *Bounds {
	switch n := e.(type) {
	case *LogicalOp:
		l := extractBounds(n.Left, neg)
		r := extractBounds(n.Right, neg)
		// Under negation De Morgan swaps the connective.
		op := n.Op
		if neg {
			if op == "and" {
				op = "or"
			} else {
				op = "and"
			}
		}
		if op == "and" {
			return andBounds(l, r)
		}
		return orBounds(l, r)
	case *NotOp:
		return extractBounds(n.Child, !neg)
	case *BinaryOp:
		return comparisonBounds(n, neg)
	default:
		return nil
	}
}

// negateOp maps a comparison to its logical negation.
func negateOp(op string) string {
	switch op {
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	case "=":
		return "!="
	case "!=":
		return "="
	default:
		return ""
	}
}

// comparisonBounds extracts the interval of a single attr-vs-constant
// comparison, handling either operand order and negation.
func comparisonBounds(n *BinaryOp, neg bool) *Bounds {
	op := n.Op
	switch op {
	case "<", "<=", ">", ">=", "=", "!=":
	default:
		return nil // arithmetic, not a comparison
	}
	ident, lit, op, ok := identVsConst(n)
	if !ok || ident.Attr == AttrInvalid {
		return nil
	}
	if neg {
		op = negateOp(op)
	}
	iv := fullInterval()
	switch op {
	case "<":
		iv.Hi, iv.HiOpen = lit, true
	case "<=":
		iv.Hi = lit
	case ">":
		iv.Lo, iv.LoOpen = lit, true
	case ">=":
		iv.Lo = lit
	case "=":
		iv.Lo, iv.Hi = lit, lit
	case "!=":
		// Excludes a single point: not representable as one interval.
		return nil
	}
	// A comparison against NaN is false for every value; its negation is
	// true for every value. Either way no useful interval survives.
	if math.IsNaN(lit) {
		return nil
	}
	// The un-negated comparison is false on NaN values; the negated one is
	// therefore true on them, except NOT(!=) which is plain equality.
	iv.AllowNaN = neg && op != "="
	return &Bounds{ByAttr: map[AttrID]Interval{ident.Attr: iv}}
}

// identVsConst matches "attr OP const-expr" in either operand order,
// returning the operator as seen with the attribute on the left ("18 > r"
// becomes r < 18).
func identVsConst(n *BinaryOp) (*Ident, float64, string, bool) {
	if id, ok := n.Left.(*Ident); ok {
		if v, ok := constEval(n.Right); ok {
			return id, v, n.Op, true
		}
		return nil, 0, "", false
	}
	if id, ok := n.Right.(*Ident); ok {
		if v, ok := constEval(n.Left); ok {
			op := n.Op
			switch n.Op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
			return id, v, op, true
		}
	}
	return nil, 0, "", false
}

// andBounds conjoins two bounds: intervals intersect attribute-wise; a
// provably false side makes the conjunction false.
func andBounds(l, r *Bounds) *Bounds {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.Never || r.Never {
		return &Bounds{Never: true}
	}
	out := &Bounds{ByAttr: make(map[AttrID]Interval, len(l.ByAttr)+len(r.ByAttr))}
	for a, iv := range l.ByAttr {
		out.ByAttr[a] = iv
	}
	for a, iv := range r.ByAttr {
		if prev, ok := out.ByAttr[a]; ok {
			iv = prev.intersect(iv)
		}
		out.ByAttr[a] = iv
	}
	for _, iv := range out.ByAttr {
		if iv.EmptyReal() && !iv.AllowNaN {
			// One attribute has no satisfiable value: the whole
			// conjunction is false for every record.
			return &Bounds{Never: true}
		}
	}
	return out
}

// orBounds disjoins two bounds: only attributes constrained on both sides
// stay constrained, by the hull of their intervals. An unconstrained side
// makes the disjunction unconstrained; a provably false side yields the
// other side unchanged.
func orBounds(l, r *Bounds) *Bounds {
	if l == nil || r == nil {
		return nil
	}
	if l.Never {
		return r
	}
	if r.Never {
		return l
	}
	out := &Bounds{ByAttr: make(map[AttrID]Interval)}
	for a, liv := range l.ByAttr {
		if riv, ok := r.ByAttr[a]; ok {
			out.ByAttr[a] = liv.union(riv)
		}
	}
	if len(out.ByAttr) == 0 {
		return nil
	}
	return out
}

// Vectorized filter kernels over compressed column blocks: the plan-time
// half of the scan fast path.
//
// The planner compiles a leaf scan's predicate bounds (query.Bounds) into
// per-column key-range tests against the store's COLBLK slabs (package
// colblk). All comparison happens in key space — an unsigned total order
// agreeing with IEEE ordering on non-NaN values — so each interval becomes
// one branch-free `key-lo <= span` test, NaN semantics fall out exactly as
// the row path's float comparisons (NaN keys sit outside every real range),
// and negated predicates that admit NaN add a second range test against the
// [key(-Inf), key(+Inf)] band instead of a float isNaN call.
//
// When query.KernelExact proves the ranges ARE the predicate, survivors
// skip the compiled row predicate entirely; otherwise the kernel is a
// conservative prefilter and the row predicate re-checks survivors against
// the raw record. Either way only survivors materialize into result
// batches, and constant/dictionary/frame-of-reference blocks whose key
// bounds cannot intersect a range dismiss whole containers without
// unpacking a single code.
package qe

import (
	"sort"

	"sdss/internal/colblk"
	"sdss/internal/query"
	"sdss/internal/store"
)

// scanPlan is the per-query leaf-scan state the planner computes once and
// every shard worker shares: the hidden (sort/aggregate) column list and
// result width that used to be recomputed per slice, plus the compiled
// kernel (nil when the scan must run the row path).
type scanPlan struct {
	hidden []query.AttrID
	width  int
	kernel *kernelPlan
}

// newScanPlan hoists the per-shard scan setup to plan time: the scatter
// used to rebuild this state inside every shard slice's runScan call.
func (e *Engine) newScanPlan(cs *query.CompiledSelect, st *store.Sharded) *scanPlan {
	sp := &scanPlan{}
	if cs.Order != query.AttrInvalid {
		sp.hidden = append(sp.hidden, cs.Order)
	}
	if cs.Agg != query.AggNone && cs.Agg != query.AggCount {
		sp.hidden = append(sp.hidden, cs.AggCol)
	}
	sp.width = len(cs.Cols) + len(sp.hidden)
	sp.kernel = e.compileKernel(cs, st, sp)
	return sp
}

// kernelPlan is one leaf scan's compiled kernel: the key-range predicates,
// the output column routing, and the identity columns every result needs.
type kernelPlan struct {
	spec           *colblk.Spec
	objCol, htmCol int
	// exact marks that the key ranges are the whole predicate (see
	// query.KernelExact): survivors skip the row predicate.
	exact bool
	// never marks a predicate no stored record can satisfy: every container
	// is dismissed outright (the planner's empty-access shortcut normally
	// catches this first, but NoZone keeps full-scan baselines honest).
	never bool
	preds []kernelPred
	outs  []outCol
	// needRow is set when survivors still touch the raw record: a residual
	// row predicate, or a derived output attribute.
	needRow bool
	// perRecBytes is the raw footprint of the columns the kernel references
	// per record — the numerator of the planner's bytes-scanned estimate.
	perRecBytes int
}

// outCol routes one output value: stored attributes materialize from
// decoded keys, derived ones through the row accessor.
type outCol struct {
	attr   query.AttrID
	stored bool
	kind   colblk.Kind
}

// kernelPred is one column's compiled range test. A record's key k
// survives iff k-kLo <= kSpan (its value satisfies the interval), or — for
// predicates negation made NaN-admitting — k lies outside the
// [nanLo, nanLo+nanSpan] band of real values. never marks an interval no
// storable real value satisfies (only the NaN test can admit).
type kernelPred struct {
	col            int
	kind           colblk.Kind
	never          bool
	kLo, kSpan     uint64
	allowNaN       bool
	nanLo, nanSpan uint64
}

// name labels the scan's kernel for EXPLAIN.
func (kp *kernelPlan) name() string {
	switch {
	case kp == nil:
		return "row"
	case kp.exact:
		return "vector"
	default:
		return "vector+pred"
	}
}

// compileKernel builds the kernel plan for a leaf scan, or nil when the
// scan must run the row path: kernels are disabled (NoKernel), the store
// keeps no column blocks, or the predicate offers neither exactness nor a
// single range to prefilter on (a purely spatial or flag-mask predicate
// gains nothing from decoding columns).
func (e *Engine) compileKernel(cs *query.CompiledSelect, st *store.Sharded, sp *scanPlan) *kernelPlan {
	if e.NoKernel || !st.ColBlkEnabled() {
		return nil
	}
	spec := query.ColumnSpecs(cs.Table)
	if spec == nil {
		return nil
	}
	kp := &kernelPlan{spec: spec}
	switch cs.Table {
	case query.TablePhoto:
		kp.objCol, kp.htmCol = int(query.PhotoObjID), int(query.PhotoHTMID)
	case query.TableTag:
		kp.objCol, kp.htmCol = int(query.TagObjID), int(query.TagHTMID)
	case query.TableSpec:
		kp.objCol, kp.htmCol = int(query.SpecObjID), int(query.SpecHTMID)
	default:
		return nil
	}
	var where query.Expr
	if cs.Source != nil {
		where = cs.Source.Where
	}
	kp.exact = query.KernelExact(cs.Table, where)

	switch {
	case cs.Bounds != nil && cs.Bounds.Never:
		kp.never = true
	case cs.Bounds != nil:
		// Deterministic pred order (ByAttr is a map).
		attrs := make([]query.AttrID, 0, len(cs.Bounds.ByAttr))
		for a := range cs.Bounds.ByAttr {
			attrs = append(attrs, a)
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
		for _, a := range attrs {
			if int(a) >= spec.NumCols() {
				continue
			}
			c := spec.Col(int(a))
			if c.Kind == colblk.KNone {
				continue // derived attribute: the row predicate re-checks it
			}
			iv := cs.Bounds.ByAttr[a]
			p := kernelPred{col: int(a), kind: c.Kind}
			if kLo, kHi, ok := c.Kind.KeyRange(iv.Lo, iv.Hi, iv.LoOpen, iv.HiOpen); ok {
				p.kLo, p.kSpan = kLo, kHi-kLo
			} else {
				p.never = true
			}
			if iv.AllowNaN {
				if lo, hi, ok := c.Kind.InfKeys(); ok {
					p.allowNaN, p.nanLo, p.nanSpan = true, lo, hi-lo
				}
				// Integer kinds store no NaNs: AllowNaN is vacuous there.
			}
			if p.never && !p.allowNaN {
				// No storable value on this attribute satisfies the bounds
				// (e.g. "class < 0" over a u8 column): nothing matches.
				kp.never = true
				break
			}
			kp.preds = append(kp.preds, p)
		}
	}
	if !kp.exact && len(kp.preds) == 0 && !kp.never {
		return nil
	}

	for _, a := range cs.Cols {
		kp.outs = append(kp.outs, makeOutCol(spec, a))
	}
	for _, a := range sp.hidden {
		kp.outs = append(kp.outs, makeOutCol(spec, a))
	}
	kp.needRow = !kp.exact && cs.Pred != nil
	for _, oc := range kp.outs {
		if !oc.stored {
			kp.needRow = true
		}
	}

	ref := make([]bool, spec.NumCols())
	ref[kp.objCol], ref[kp.htmCol] = true, true
	for _, p := range kp.preds {
		ref[p.col] = true
	}
	for _, oc := range kp.outs {
		if oc.stored {
			ref[int(oc.attr)] = true
		}
	}
	for i, used := range ref {
		if used {
			kp.perRecBytes += spec.Col(i).Kind.Size()
		}
	}
	return kp
}

func makeOutCol(spec *colblk.Spec, a query.AttrID) outCol {
	c := spec.Col(int(a))
	return outCol{attr: a, stored: c.Kind != colblk.KNone, kind: c.Kind}
}

// probe reports whether any key the block can decode to satisfies the
// predicate, from the block header alone. A false return dismisses the
// whole container without unpacking a single code — the dictionary-miss
// and constant-block shortcuts.
func (p *kernelPred) probe(b *colblk.Block) bool {
	if b.Enc == colblk.EncDict {
		// The dictionary is the exact sorted key set: test membership, not
		// just bounds.
		d := b.Dict
		if !p.never {
			i := sort.Search(len(d), func(j int) bool { return d[j] >= p.kLo })
			if i < len(d) && d[i]-p.kLo <= p.kSpan {
				return true
			}
		}
		// A sorted set contains a key outside the real band iff one of its
		// extremes does.
		return p.allowNaN && len(d) > 0 &&
			(d[0]-p.nanLo > p.nanSpan || d[len(d)-1]-p.nanLo > p.nanSpan)
	}
	lo, hi, ok := b.KeyBounds(p.kind)
	if !ok {
		return true // no cheap bounds: decode and let the filter decide
	}
	if !p.never && max(lo, p.kLo) <= min(hi, p.kLo+p.kSpan) {
		return true
	}
	// NaN keys sit outside [key(-Inf), key(+Inf)]: the block can hold one
	// only if its bounds poke out of that band.
	return p.allowNaN && (lo < p.nanLo || hi > p.nanLo+p.nanSpan)
}

// filter narrows the selection vector to records whose key satisfies the
// predicate, returning the surviving count. n < 0 seeds the selection from
// every record. The loops are branch-free: the conditional append compiles
// to a flag increment, not a jump, so survivor density does not stall the
// pipeline.
func (p *kernelPred) filter(keys []uint64, sel []int32, n int) int {
	if p.never {
		// Only NaN keys can survive (a pred admitting nothing at all
		// dismissed the container at probe time; allowNaN is set here).
		nanLo, nanSpan := p.nanLo, p.nanSpan
		m := 0
		if n < 0 {
			for i, k := range keys {
				sel[m] = int32(i)
				m += b2i(k-nanLo > nanSpan)
			}
			return m
		}
		for _, si := range sel[:n] {
			sel[m] = si
			m += b2i(keys[si]-nanLo > nanSpan)
		}
		return m
	}
	lo, span := p.kLo, p.kSpan
	// Without NaN admission the band test is rigged to never fire
	// (k-0 <= MaxUint64 holds for every k), keeping one loop body.
	nanLo, nanSpan := uint64(0), ^uint64(0)
	if p.allowNaN {
		nanLo, nanSpan = p.nanLo, p.nanSpan
	}
	m := 0
	if n < 0 {
		for i, k := range keys {
			sel[m] = int32(i)
			m += b2i(k-lo <= span) | b2i(k-nanLo > nanSpan)
		}
		return m
	}
	for _, si := range sel[:n] {
		k := keys[si]
		sel[m] = si
		m += b2i(k-lo <= span) | b2i(k-nanLo > nanSpan)
	}
	return m
}

// b2i converts a comparison to a 0/1 increment (compiled as a set-on-flag,
// not a branch).
func b2i(b bool) int {
	var v int
	if b {
		v = 1
	}
	return v
}

// Join compilation: the logical-plan half of the planner split. A two-table
// select is analyzed against both sides, its WHERE clause is split into
// conjuncts and each conjunct pushed below the join when it references only
// one side (the classic predicate-pushdown rewrite), and the result is a
// CompiledJoin: two fully compiled single-table leaf scans — each with its
// own predicate, coverage region, and zone bounds, so every access-path
// optimization applies below the join — plus the join spec and a residual
// predicate for conjuncts that genuinely straddle both sides.
package query

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"sdss/internal/sphere"
)

// sideStride is the attribute-ID stride separating the two join sides in
// residual predicates: a residual expression is compiled like any other, but
// its identifiers carry EncodeSideAttr(side, attr) so one Getter can serve
// values from both rows of a candidate pair. Table schemas are far below 256
// attributes wide, and side-0 encoding is the identity — whole-row functions
// that bind to the left table (FLAG, spatial tests) keep working unchanged.
const sideStride AttrID = 1 << 8

// EncodeSideAttr maps a (join side, table-local attribute) pair into the
// combined attribute space residual predicates are compiled against.
func EncodeSideAttr(side int, attr AttrID) AttrID {
	return attr + AttrID(side)*sideStride
}

// DecodeSideAttr inverts EncodeSideAttr.
func DecodeSideAttr(a AttrID) (side int, attr AttrID) {
	return int(a / sideStride), a % sideStride
}

// joinBinder resolves identifiers against the two sides of a join. Qualified
// references bind by alias; unqualified references bind when exactly one
// side's schema knows the name (so "r" works in photo⋈spec but "class" must
// be qualified).
type joinBinder struct {
	refs [2]TableRef
}

func (b *joinBinder) bind(id *Ident) error {
	if id.Qual != "" {
		for s := range b.refs {
			if b.refs[s].Alias == id.Qual {
				attr, err := Resolve(b.refs[s].Table, id.Name)
				if err != nil {
					return err
				}
				id.Attr, id.Side = attr, int8(s)
				return nil
			}
		}
		return fmt.Errorf("query: unknown table alias %q in %s (aliases: %s, %s)",
			id.Qual, id, b.refs[0].Alias, b.refs[1].Alias)
	}
	var sides []int
	for s := range b.refs {
		if _, ok := Schema(b.refs[s].Table)[strings.ToLower(id.Name)]; ok {
			sides = append(sides, s)
		}
	}
	switch len(sides) {
	case 1:
		attr, err := Resolve(b.refs[sides[0]].Table, id.Name)
		if err != nil {
			return err
		}
		id.Attr, id.Side = attr, int8(sides[0])
		return nil
	case 0:
		return fmt.Errorf("query: neither %s nor %s has attribute %q",
			b.refs[0].Table, b.refs[1].Table, id.Name)
	default:
		return fmt.Errorf("query: ambiguous attribute %q (qualify as %s.%s or %s.%s)",
			id.Name, b.refs[0].Alias, id.Name, b.refs[1].Alias, id.Name)
	}
}

func (b *joinBinder) tableOf(id *Ident) Table {
	if id.Side == 1 {
		return b.refs[1].Table
	}
	return b.refs[0].Table
}

// flagTable binds whole-row FLAG tests (which carry no alias) to the left
// table, the documented convention spatial predicates follow too.
func (b *joinBinder) flagTable() Table { return b.refs[0].Table }

// joinRefs returns the two FROM-clause table refs of a join select.
func joinRefs(sel *Select) [2]TableRef {
	return [2]TableRef{{Table: sel.Table, Alias: sel.Alias}, sel.Join.Right}
}

// analyzeJoinSelect resolves a two-table select in place: WHERE identifiers
// bind to their side, ON references are validated to name one column per
// side, and the select list / aggregate / ORDER BY references are checked
// early so Analyze alone reports bad names.
func analyzeJoinSelect(sel *Select) error {
	b := &joinBinder{refs: joinRefs(sel)}
	js := sel.Join
	if js.Kind == JoinInner {
		if err := b.bind(js.OnLeft); err != nil {
			return err
		}
		if err := b.bind(js.OnRight); err != nil {
			return err
		}
		if js.OnLeft.Side == js.OnRight.Side {
			return fmt.Errorf("query: ON must relate the two joined tables, got %s = %s",
				js.OnLeft, js.OnRight)
		}
		if js.OnLeft.Side == 1 {
			js.OnLeft, js.OnRight = js.OnRight, js.OnLeft
		}
	}
	for _, c := range sel.Cols {
		if _, err := resolveRef(b, c); err != nil {
			return err
		}
	}
	if sel.AggArg != "" {
		if _, err := resolveRef(b, sel.AggArg); err != nil {
			return err
		}
	}
	if sel.OrderBy != "" {
		if _, err := resolveRef(b, sel.OrderBy); err != nil {
			return err
		}
	}
	if sel.Where != nil {
		rewritten, err := analyzeExpr(sel.Where, b)
		if err != nil {
			return err
		}
		sel.Where = rewritten
	}
	return nil
}

// OutRef addresses one value of a joined row: which side it comes from and
// its index within that side's leaf projection.
type OutRef struct {
	Side int // 0 = left, 1 = right
	Idx  int // index into the side's CompiledSelect.Cols
}

// CompiledJoin is a fully prepared two-table leaf: two compiled single-table
// scans (with per-side pushed-down predicates, regions, and bounds), the
// join specification, the residual cross-table predicate, and the output
// projection mapping.
type CompiledJoin struct {
	Source *Select
	Kind   JoinKind

	// Left and Right are the per-side leaf scans. Their Cols hold every
	// attribute the join needs from that side: projected columns, join
	// keys, residual-predicate inputs, and the hidden sort/aggregate
	// operands. A NEIGHBORS self-join whose two sides push down the same
	// filter (up to the alias) has Right == Left: one scan projects what
	// both sides need, so the side positions and attribute tables below are
	// equal too.
	Left, Right *CompiledSelect

	// LeftKey/RightKey index the equi-join key within each side's Cols.
	// KeyObjID marks an ON objid = objid join, which the executor runs on
	// the exact 64-bit object identifiers instead of float64 key values.
	LeftKey, RightKey int
	KeyObjID          bool

	// Radius is the neighbor-join pair radius in radians; LeftPos/RightPos
	// index each side's Cartesian position triplet within its Cols.
	Radius            float64
	LeftPos, RightPos [3]int

	// Residual is the cross-table predicate (conjuncts referencing both
	// sides), compiled over EncodeSideAttr identifiers; nil when every
	// conjunct pushed down. ResidualStr renders every residual conjunct,
	// including the ID comparisons below.
	Residual    BoolFn
	ResidualStr string

	// IDPred is the exact-integer form of residual conjuncts shaped
	// "a.objid OP b.objid": object identifiers are 64-bit and would round
	// above 2^53 through the float64 expression path, silently breaking
	// the each-pair-once idiom (WHERE a.objid < b.objid). nil when no
	// such conjunct exists.
	IDPred func(left, right uint64) bool

	// IDPredSel is the estimated selectivity of IDPred over candidate pairs
	// (1 when IDPred is nil): an inequality like "a.objid < b.objid" keeps
	// half of each unordered pair's two orientations, so the planner must
	// halve the neighbor-join cardinality rather than ignore the predicate.
	IDPredSel float64

	// LeftAttrIdx/RightAttrIdx map table-local attribute IDs to positions
	// in the corresponding side's Cols (-1 when absent) — the executor's
	// decode table for residual evaluation.
	LeftAttrIdx, RightAttrIdx []int

	// Out maps every output value to its side and per-side column: the
	// first len(Cols) entries are the visible projection, followed by the
	// hidden ORDER BY key and aggregate operand when present.
	Out  []OutRef
	Cols []Column

	Agg      AggFunc
	OrderRef int // index into Out of the hidden sort key, -1 if unordered
	Desc     bool
	Limit    int

	// On is the canonical ON clause ("p.objid = s.objid") for EXPLAIN.
	On string
}

// Columns returns the join's visible result schema.
func (cj *CompiledJoin) Columns() []Column { return cj.Cols }

// Table returns the table of one side.
func (cj *CompiledJoin) Table(side int) Table {
	if side == 1 {
		return cj.Right.Table
	}
	return cj.Left.Table
}

// AttrIdx returns the attr → column-index map of one side.
func (cj *CompiledJoin) AttrIdx(side int) []int {
	if side == 1 {
		return cj.RightAttrIdx
	}
	return cj.LeftAttrIdx
}

// sideCols accumulates the deduplicated ordered column set one join side
// must project.
type sideCols struct {
	attrs []AttrID
	idx   map[AttrID]int
}

func newSideCols() *sideCols { return &sideCols{idx: make(map[AttrID]int)} }

// add returns the column index of attr, appending it on first use.
func (sc *sideCols) add(attr AttrID) int {
	if i, ok := sc.idx[attr]; ok {
		return i
	}
	i := len(sc.attrs)
	sc.attrs = append(sc.attrs, attr)
	sc.idx[attr] = i
	return i
}

// splitConjuncts flattens the top-level AND tree of an analyzed WHERE
// clause into its conjuncts.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if lo, ok := e.(*LogicalOp); ok && lo.Op == "and" {
		return splitConjuncts(lo.Right, splitConjuncts(lo.Left, out))
	}
	return append(out, e)
}

// andAll rebuilds a conjunction (nil for an empty list).
func andAll(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &LogicalOp{Op: "and", Left: out, Right: c}
		}
	}
	return out
}

// exprSides records which join sides an expression references. Whole-row
// tests — spatial predicates and FLAG — bind to the left table by
// convention, so they count as left references: a conjunct mixing one with
// a right-side column correctly becomes residual instead of being pushed
// to (and compiled against) the right table.
func exprSides(e Expr, refs *[2]bool) {
	switch n := e.(type) {
	case *Ident:
		if n.Side == 0 || n.Side == 1 {
			refs[n.Side] = true
		}
	case *SpatialPred:
		refs[0] = true
	case *NotOp:
		exprSides(n.Child, refs)
	case *LogicalOp:
		exprSides(n.Left, refs)
		exprSides(n.Right, refs)
	case *BinaryOp:
		exprSides(n.Left, refs)
		exprSides(n.Right, refs)
	case *FuncCall:
		if n.Name == "flag" {
			refs[0] = true
		}
		for _, a := range n.Args {
			exprSides(a, refs)
		}
	}
}

// collectSideAttrs adds every attribute an expression references to its
// side's column set (residual predicates need their inputs projected).
// Whole-row tests read implicit left-table attributes — FLAG the flags
// word, spatial predicates the Cartesian triplet — which must be projected
// too or the compiled closure would index a missing column.
func collectSideAttrs(e Expr, sides *[2]*sideCols, leftTable Table) {
	switch n := e.(type) {
	case *Ident:
		if n.Side == 0 || n.Side == 1 {
			sides[n.Side].add(n.Attr)
		}
	case *SpatialPred:
		cx, cy, cz := PositionAttrs(leftTable)
		sides[0].add(cx)
		sides[0].add(cy)
		sides[0].add(cz)
	case *NotOp:
		collectSideAttrs(n.Child, sides, leftTable)
	case *LogicalOp:
		collectSideAttrs(n.Left, sides, leftTable)
		collectSideAttrs(n.Right, sides, leftTable)
	case *BinaryOp:
		collectSideAttrs(n.Left, sides, leftTable)
		collectSideAttrs(n.Right, sides, leftTable)
	case *FuncCall:
		if n.Name == "flag" {
			if f := FlagsAttr(leftTable); f != AttrInvalid {
				sides[0].add(f)
			}
		}
		for _, a := range n.Args {
			collectSideAttrs(a, sides, leftTable)
		}
	}
}

// encodeResidualSides rewrites a residual expression's identifiers into the
// side-encoded attribute space (idempotent: side-0 encoding is the
// identity, and already-encoded side-1 attributes are left alone).
func encodeResidualSides(e Expr) {
	switch n := e.(type) {
	case *Ident:
		if n.Side == 1 && n.Attr < sideStride {
			n.Attr = EncodeSideAttr(1, n.Attr)
		}
	case *NotOp:
		encodeResidualSides(n.Child)
	case *LogicalOp:
		encodeResidualSides(n.Left)
		encodeResidualSides(n.Right)
	case *BinaryOp:
		encodeResidualSides(n.Left)
		encodeResidualSides(n.Right)
	case *FuncCall:
		for _, a := range n.Args {
			encodeResidualSides(a)
		}
	}
}

// objidComparison recognizes a residual conjunct of the exact shape
// "<side0>.objid OP <side1>.objid" (either operand order) and compiles it
// to an exact 64-bit comparison of the pair's object identifiers, with the
// comparison's estimated selectivity over candidate pairs (inequalities keep
// one orientation of each unordered pair → ½). Any other shape returns
// (nil, 1) and goes through the float64 expression path.
func objidComparison(e Expr, refs [2]TableRef) (func(left, right uint64) bool, float64) {
	n, ok := e.(*BinaryOp)
	if !ok {
		return nil, 1
	}
	l, ok1 := n.Left.(*Ident)
	r, ok2 := n.Right.(*Ident)
	if !ok1 || !ok2 {
		return nil, 1
	}
	isObjID := func(id *Ident) bool {
		side := int(id.Side)
		if side != 0 && side != 1 {
			return false
		}
		return AttrName(refs[side].Table, id.Attr) == "objid"
	}
	if !isObjID(l) || !isObjID(r) || l.Side == r.Side {
		return nil, 1
	}
	op := n.Op
	if l.Side == 1 {
		// Normalize to left-operand-first.
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	switch op {
	case "<":
		return func(a, b uint64) bool { return a < b }, 0.5
	case "<=":
		return func(a, b uint64) bool { return a <= b }, 0.5
	case ">":
		return func(a, b uint64) bool { return a > b }, 0.5
	case ">=":
		return func(a, b uint64) bool { return a >= b }, 0.5
	case "=":
		// Cross-table identity on distinct rows is almost never true.
		return func(a, b uint64) bool { return a == b }, 0.01
	case "!=":
		return func(a, b uint64) bool { return a != b }, 1
	default:
		return nil, 1
	}
}

// compileSide builds one side's leaf scan: the pushed-down predicate with
// its coverage region and zone bounds, projecting exactly the columns the
// join needs.
func compileSide(ref TableRef, where Expr, cols []AttrID) (*CompiledSelect, error) {
	cs := &CompiledSelect{
		Source: &Select{Table: ref.Table, Alias: ref.Alias, Where: where},
		Table:  ref.Table,
		AggCol: AttrInvalid,
		Order:  AttrInvalid,
		Cols:   cols,
	}
	if where != nil {
		pred, err := CompileBool(where, ref.Table)
		if err != nil {
			return nil, err
		}
		cs.Pred = pred
		cs.Region = ExtractRegion(where)
		cs.Bounds = ExtractBounds(where)
	}
	return cs, nil
}

// CompileJoin compiles an analyzed two-table select into its executable
// form: pushdown, per-side leaf compilation, residual compilation, and the
// output projection map.
func CompileJoin(sel *Select) (*CompiledJoin, error) {
	refs := joinRefs(sel)
	b := &joinBinder{refs: refs}
	js := sel.Join
	cj := &CompiledJoin{
		Source:   sel,
		Kind:     js.Kind,
		Agg:      sel.Agg,
		OrderRef: -1,
		Desc:     sel.Desc,
		Limit:    sel.Limit,
	}

	// Split the WHERE clause into pushable and residual conjuncts.
	// Conjuncts referencing one side (or none — spatial and flag tests,
	// which bind to the left table) push below the join; conjuncts
	// straddling both sides stay as the residual pair predicate.
	var pushed [2][]Expr
	var residual []Expr
	if sel.Where != nil {
		for _, c := range splitConjuncts(sel.Where, nil) {
			var sideRefs [2]bool
			exprSides(c, &sideRefs)
			switch {
			case sideRefs[0] && sideRefs[1]:
				residual = append(residual, c)
			case sideRefs[1]:
				pushed[1] = append(pushed[1], c)
			default:
				pushed[0] = append(pushed[0], c)
			}
		}
	}

	// Column sets each side must project. A NEIGHBORS self-join whose sides
	// push down the same filter shares one: both sides then read one scan.
	sides := [2]*sideCols{newSideCols(), newSideCols()}
	shared := js.Kind == JoinNeighbors && refs[0].Table == refs[1].Table &&
		slices.EqualFunc(pushed[0], pushed[1], sameUpToAlias)
	if shared {
		sides[1] = sides[0]
	}

	// The visible projection, in select-list order.
	addOut := func(side int, attr AttrID) {
		cj.Out = append(cj.Out, OutRef{Side: side, Idx: sides[side].add(attr)})
	}
	outName := func(side int, attr AttrID) Column {
		return Column{
			Name: refs[side].Alias + "." + AttrName(refs[side].Table, attr),
			Type: AttrType(refs[side].Table, attr),
		}
	}
	switch {
	case sel.Agg == AggCount:
		cj.Cols = []Column{{Name: "count(*)", Type: TypeInt}}
	case sel.Agg != AggNone:
		id, err := resolveRef(b, sel.AggArg)
		if err != nil {
			return nil, err
		}
		cj.Cols = []Column{{
			Name: fmt.Sprintf("%s(%s)", sel.Agg, id),
			Type: TypeFloat,
		}}
	case sel.Star:
		for side := 0; side < 2; side++ {
			for a := 0; a < NumAttrs(refs[side].Table); a++ {
				addOut(side, AttrID(a))
				cj.Cols = append(cj.Cols, outName(side, AttrID(a)))
			}
		}
	default:
		for _, c := range sel.Cols {
			id, err := resolveRef(b, c)
			if err != nil {
				return nil, err
			}
			addOut(int(id.Side), id.Attr)
			cj.Cols = append(cj.Cols, outName(int(id.Side), id.Attr))
		}
	}

	// Hidden outputs: the ORDER BY key, then the aggregate operand.
	if sel.OrderBy != "" {
		id, err := resolveRef(b, sel.OrderBy)
		if err != nil {
			return nil, err
		}
		cj.OrderRef = len(cj.Out)
		cj.Out = append(cj.Out, OutRef{Side: int(id.Side), Idx: sides[id.Side].add(id.Attr)})
	}
	if sel.Agg != AggNone && sel.Agg != AggCount {
		id, err := resolveRef(b, sel.AggArg)
		if err != nil {
			return nil, err
		}
		cj.Out = append(cj.Out, OutRef{Side: int(id.Side), Idx: sides[id.Side].add(id.Attr)})
	}

	// Residual inputs must be projected by their side.
	for _, c := range residual {
		collectSideAttrs(c, &sides, refs[0].Table)
	}

	// Join keys / neighbor positions.
	switch js.Kind {
	case JoinInner:
		cj.LeftKey = sides[0].add(js.OnLeft.Attr)
		cj.RightKey = sides[1].add(js.OnRight.Attr)
		cj.KeyObjID = AttrName(refs[0].Table, js.OnLeft.Attr) == "objid" &&
			AttrName(refs[1].Table, js.OnRight.Attr) == "objid"
		cj.On = fmt.Sprintf("%s = %s", js.OnLeft, js.OnRight)
	case JoinNeighbors:
		cj.Radius = js.RadiusArcmin * sphere.Arcmin
		for side := 0; side < 2; side++ {
			cx, cy, cz := PositionAttrs(refs[side].Table)
			pos := [3]int{sides[side].add(cx), sides[side].add(cy), sides[side].add(cz)}
			if side == 0 {
				cj.LeftPos = pos
			} else {
				cj.RightPos = pos
			}
		}
		cj.On = fmt.Sprintf("dist(%s, %s) <= %g'", refs[0].Alias, refs[1].Alias, js.RadiusArcmin)
	default:
		return nil, fmt.Errorf("query: unknown join kind %v", js.Kind)
	}

	// Per-side leaf scans.
	var err error
	cj.Left, err = compileSide(refs[0], andAll(pushed[0]), sides[0].attrs)
	if err != nil {
		return nil, err
	}
	if shared {
		cj.Right = cj.Left
	} else if cj.Right, err = compileSide(refs[1], andAll(pushed[1]), sides[1].attrs); err != nil {
		return nil, err
	}

	// Residual predicate. Conjuncts comparing the two objids are peeled
	// off into an exact u64 predicate first; the rest compile over the
	// side-encoded attribute space.
	cj.IDPredSel = 1
	if len(residual) > 0 {
		cj.ResidualStr = andAll(residual).String()
		var rest []Expr
		for _, c := range residual {
			if idp, sel := objidComparison(c, refs); idp != nil {
				cj.IDPredSel *= sel
				prev := cj.IDPred
				if prev == nil {
					cj.IDPred = idp
				} else {
					cj.IDPred = func(l, r uint64) bool { return prev(l, r) && idp(l, r) }
				}
				continue
			}
			rest = append(rest, c)
		}
		if len(rest) > 0 {
			resExpr := andAll(rest)
			encodeResidualSides(resExpr)
			cj.Residual, err = CompileBool(resExpr, refs[0].Table)
			if err != nil {
				return nil, err
			}
		}
	}

	// Executor decode tables: table-local attr → side column index.
	buildIdx := func(t Table, sc *sideCols) []int {
		out := make([]int, NumAttrs(t))
		for i := range out {
			out[i] = -1
		}
		for attr, idx := range sc.idx {
			out[attr] = idx
		}
		return out
	}
	cj.LeftAttrIdx = buildIdx(refs[0].Table, sides[0])
	cj.RightAttrIdx = buildIdx(refs[1].Table, sides[1])
	return cj, nil
}

// sameUpToAlias reports whether two analyzed expressions are the same test
// of one table: identical but for the alias their identifiers carry. A
// spatial test is never the same: those bind to the left side only.
func sameUpToAlias(a, b Expr) bool {
	switch x := a.(type) {
	case *Ident:
		y, ok := b.(*Ident)
		return ok && x.Attr == y.Attr
	case *NumberLit:
		y, ok := b.(*NumberLit)
		return ok && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	case *StringLit:
		y, ok := b.(*StringLit)
		return ok && x.Value == y.Value
	case *BinaryOp:
		y, ok := b.(*BinaryOp)
		return ok && x.Op == y.Op && sameUpToAlias(x.Left, y.Left) && sameUpToAlias(x.Right, y.Right)
	case *LogicalOp:
		y, ok := b.(*LogicalOp)
		return ok && x.Op == y.Op && sameUpToAlias(x.Left, y.Left) && sameUpToAlias(x.Right, y.Right)
	case *NotOp:
		y, ok := b.(*NotOp)
		return ok && sameUpToAlias(x.Child, y.Child)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Args, y.Args, sameUpToAlias)
	}
	return false
}

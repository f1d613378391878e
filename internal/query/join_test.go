package query

import (
	"math"
	"strings"
	"testing"
)

func prepareJoin(t *testing.T, src string) *CompiledJoin {
	t.Helper()
	prep, err := PrepareString(src)
	if err != nil {
		t.Fatalf("prepare %q: %v", src, err)
	}
	if prep.Join == nil {
		t.Fatalf("%q did not prepare as a join", src)
	}
	return prep.Join
}

func TestJoinParseShapes(t *testing.T) {
	stmt, err := Parse("SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 18")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.Select
	if sel.Join == nil || sel.Join.Kind != JoinInner {
		t.Fatalf("join clause = %+v", sel.Join)
	}
	if sel.Table != TablePhoto || sel.Alias != "p" {
		t.Errorf("left = %v %q", sel.Table, sel.Alias)
	}
	if sel.Join.Right.Table != TableSpec || sel.Join.Right.Alias != "s" {
		t.Errorf("right = %+v", sel.Join.Right)
	}
	if got := sel.String(); !strings.Contains(got, "JOIN") || !strings.Contains(got, "ON p.objid = s.objid") {
		t.Errorf("String() = %q", got)
	}

	stmt, err = Parse("SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid")
	if err != nil {
		t.Fatal(err)
	}
	if j := stmt.Select.Join; j == nil || j.Kind != JoinNeighbors || j.RadiusArcmin != 0.5 {
		t.Fatalf("neighbors clause = %+v", stmt.Select.Join)
	}
	if got := stmt.Select.String(); !strings.Contains(got, "NEIGHBORS(tag a, tag b, 0.5)") {
		t.Errorf("String() = %q", got)
	}

	// Default aliases: the table name as written.
	stmt, err = Parse("SELECT photo.objid FROM photo JOIN spec ON photo.objid = spec.objid")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Select.Alias != "photo" || stmt.Select.Join.Right.Alias != "spec" {
		t.Errorf("default aliases: %q, %q", stmt.Select.Alias, stmt.Select.Join.Right.Alias)
	}
}

func TestJoinParseErrors(t *testing.T) {
	bad := []string{
		"SELECT p.objid FROM photo p JOIN spec s",                                    // no ON
		"SELECT p.objid FROM photo p JOIN spec s ON p.objid < s.objid",               // not an equality
		"SELECT t.objid FROM NEIGHBORS(tag t, tag t, 1)",                             // duplicate alias
		"SELECT a.objid FROM NEIGHBORS(tag a, tag b, -3)",                            // bad radius
		"SELECT a.objid FROM NEIGHBORS(tag a, tag b)",                                // missing radius
		"SELECT p.objid FROM photo p JOIN spec p ON p.objid = p.objid",               // duplicate alias
		"SELECT x.objid FROM photo p JOIN spec s ON p.objid = s.objid",               // unknown alias
		"SELECT class FROM photo p JOIN spec s ON p.objid = s.objid",                 // ambiguous unqualified
		"SELECT p.objid FROM photo p JOIN spec s ON p.objid = p.htmid",               // ON one-sided
		"SELECT p.nosuch FROM photo p JOIN spec s ON p.objid = s.objid",              // unknown attr
		"SELECT p.objid FROM photo p JOIN spec s ON p.objid = s.objid WHERE q.r < 2", // unknown qual
	}
	for _, q := range bad {
		if _, err := PrepareString(q); err == nil {
			t.Errorf("PrepareString(%q) succeeded", q)
		}
	}
}

func TestJoinPushdownSplitsConjuncts(t *testing.T) {
	cj := prepareJoin(t, `SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid
		WHERE p.r < 18 AND s.sn > 5 AND p.u - p.g > s.redshift AND CIRCLE(180, 30, 60)`)

	// p.r < 18 and the spatial predicate push to the left leaf.
	if cj.Left.Pred == nil || cj.Left.Bounds == nil {
		t.Fatal("left side got no pushed predicate/bounds")
	}
	if iv, ok := cj.Left.Bounds.ByAttr[PhotoR]; !ok || iv.Hi != 18 {
		t.Errorf("left bounds = %+v", cj.Left.Bounds)
	}
	if cj.Left.Region == nil {
		t.Error("spatial conjunct did not become the left region")
	}
	// s.sn > 5 pushes right.
	if cj.Right.Pred == nil || cj.Right.Bounds == nil {
		t.Fatal("right side got no pushed predicate/bounds")
	}
	if iv, ok := cj.Right.Bounds.ByAttr[SpecSN]; !ok || iv.Lo != 5 {
		t.Errorf("right bounds = %+v", cj.Right.Bounds)
	}
	// The mixed conjunct stays residual.
	if cj.Residual == nil || !strings.Contains(cj.ResidualStr, "p.u") {
		t.Errorf("residual = %q", cj.ResidualStr)
	}
	// ON objid = objid runs on exact identifiers.
	if !cj.KeyObjID {
		t.Error("objid join not marked KeyObjID")
	}
}

func TestJoinResidualEvaluation(t *testing.T) {
	cj := prepareJoin(t, `SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid
		WHERE p.r - s.redshift > 1`)
	if cj.Residual == nil {
		t.Fatal("no residual compiled")
	}
	// Find the projected positions of the residual inputs.
	rIdx := cj.LeftAttrIdx[PhotoR]
	zIdx := cj.RightAttrIdx[SpecRedshift]
	if rIdx < 0 || zIdx < 0 {
		t.Fatalf("residual inputs not projected: r=%d z=%d", rIdx, zIdx)
	}
	lv := make([]float64, len(cj.Left.Cols))
	rv := make([]float64, len(cj.Right.Cols))
	getter := func(id AttrID) float64 {
		side, attr := DecodeSideAttr(id)
		if side == 1 {
			return rv[cj.RightAttrIdx[attr]]
		}
		return lv[cj.LeftAttrIdx[attr]]
	}
	lv[rIdx], rv[zIdx] = 19, 17.5
	if !cj.Residual(getter) {
		t.Error("19 - 17.5 > 1 evaluated false")
	}
	lv[rIdx], rv[zIdx] = 19, 18.5
	if cj.Residual(getter) {
		t.Error("19 - 18.5 > 1 evaluated true")
	}
}

func TestJoinNeighborRadiusConversion(t *testing.T) {
	cj := prepareJoin(t, "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 3)")
	wantRad := 3.0 * math.Pi / (180 * 60)
	if math.Abs(cj.Radius-wantRad) > 1e-12 {
		t.Errorf("radius = %v rad, want %v", cj.Radius, wantRad)
	}
	// Position triplets must be projected for both sides.
	for side, pos := range [][3]int{cj.LeftPos, cj.RightPos} {
		for _, idx := range pos {
			if idx < 0 {
				t.Errorf("side %d missing position columns: %v", side, pos)
			}
		}
	}
}

// TestSingleTableAliasQualifiers: qualified references work on single-table
// selects too, and wrong qualifiers are rejected.
func TestSingleTableAliasQualifiers(t *testing.T) {
	prep, err := PrepareString("SELECT t.objid, t.r FROM tag t WHERE t.r < 20 ORDER BY t.r")
	if err != nil {
		t.Fatal(err)
	}
	cols := prep.Columns()
	if cols[0].Name != "objid" || cols[1].Name != "r" {
		t.Errorf("columns = %+v", cols)
	}
	if _, err := PrepareString("SELECT x.objid FROM tag t"); err == nil {
		t.Error("wrong qualifier accepted")
	}
	// The canonical table name always works as a qualifier.
	if _, err := PrepareString("SELECT tag.objid FROM tag"); err != nil {
		t.Errorf("table-name qualifier rejected: %v", err)
	}
}

package qe

import (
	"fmt"
	"strings"
	"testing"

	"sdss/internal/query"
)

// mustPlan plans q on e without executing it.
func mustPlan(t testing.TB, e *Engine, q string) *ExecPlan {
	t.Helper()
	prep, err := query.PrepareString(q)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	plan, err := e.Plan(prep)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return plan
}

// sum adds up a per-shard container count.
func sum(counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// TestPlanScan: a spatial select with ORDER BY/LIMIT plans as
// limit → sort → indexed scan, and the scan carries the filter and the
// top-N pushdown, in its node and on its EXPLAIN line.
func TestPlanScan(t *testing.T) {
	e, photo, _ := testArchive(t, 3000, 5)
	c := &photo[0]
	plan := mustPlan(t, e, fmt.Sprintf(
		"SELECT objid, r FROM tag WHERE CIRCLE(%v, %v, 10) AND r < 20 ORDER BY r DESC LIMIT 7", c.RA, c.Dec))
	limit := plan.Describe()
	if limit.Op != "limit" || limit.Limit != 7 || len(limit.Children) != 1 {
		t.Fatalf("root = %+v, want limit 7", limit)
	}
	sortNode := limit.Children[0]
	if sortNode.Op != "sort" || sortNode.OrderBy != "r" || !sortNode.Desc || len(sortNode.Children) != 1 {
		t.Fatalf("sort = %+v, want BY r DESC", sortNode)
	}
	scan := sortNode.Children[0]
	if scan.Op != "scan" || scan.Table != "tag" {
		t.Fatalf("leaf = %+v, want a tag scan", scan)
	}
	if !strings.HasPrefix(scan.Access, "htm-index") {
		t.Errorf("spatial query access = %q, want the htm index", scan.Access)
	}
	if !strings.Contains(scan.Filter, "CIRCLE") {
		t.Errorf("filter = %q", scan.Filter)
	}
	if scan.Limit != 7 || scan.OrderBy != "r" || !scan.Desc {
		t.Errorf("scan top-N = limit %d by %q desc=%v, want TOP 7 BY r DESC", scan.Limit, scan.OrderBy, scan.Desc)
	}
	lines := strings.Split(plan.Text(), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "    SCAN tag") || !strings.Contains(lines[2], " TOP 7 BY r DESC") {
		t.Errorf("scan line does not show the top-N pushdown:\n%s", plan.Text())
	}
	if strings.Contains(lines[0], " TOP ") || strings.Contains(lines[1], " TOP ") {
		t.Errorf("TOP shown above the scan:\n%s", plan.Text())
	}
	// Without a LIMIT the scan keeps every row.
	if scan := mustPlan(t, e, "SELECT objid, r FROM tag ORDER BY r").Describe().Children[0]; scan.Limit != 0 || scan.OrderBy != "" {
		t.Errorf("unlimited ORDER BY scan = limit %d by %q, want no top-N", scan.Limit, scan.OrderBy)
	}

	// No spatial predicate → no index.
	if scan := mustPlan(t, e, "SELECT objid FROM tag WHERE r < 20").Describe(); strings.HasPrefix(scan.Access, "htm-index") {
		t.Errorf("magnitude-only query access = %q", scan.Access)
	}
}

// TestPlanSetOpAndExplainText: a set operation plans as a two-child node,
// and the text rendering prints one indented line per operator.
func TestPlanSetOpAndExplainText(t *testing.T) {
	e, _, _ := testArchive(t, 3000, 5)
	plan := mustPlan(t, e, "SELECT objid FROM tag WHERE r < 18 MINUS SELECT objid FROM tag WHERE g < 18")
	if root := plan.Describe(); root.Op != "minus" || len(root.Children) != 2 {
		t.Fatalf("plan = %+v", root)
	}
	text := plan.Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("explain text has %d lines:\n%s", len(lines), text)
	}
	if !strings.HasPrefix(lines[0], "MINUS") {
		t.Errorf("line 0 = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "  SCAN tag") || !strings.Contains(l, " ZONES [") {
			t.Errorf("scan line = %q, want an indented tag scan with its zone bounds", l)
		}
	}
}

// TestExplainCountsWhatRuns: the scan node's per-shard container counts are
// the containers the scan reads — they sum to containers − zone_pruned, to
// the scan's kept containers and to the containers its morsels dispatch —
// for an indexed cone, a cone past the index crossover, a predicate the
// zone maps prune entirely and a provably false one.
func TestExplainCountsWhatRuns(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, photo := coverArchive(t, 6000, 7, 4, shards)
		c := &photo[10]
		for _, tc := range []struct {
			q      string
			access string
			// want is the expected sum, or -1 for "some containers".
			want int
		}{
			{fmt.Sprintf("SELECT objid FROM tag WHERE CIRCLE(%v, %v, 30)", c.RA, c.Dec), "htm-index", -1},
			{"SELECT objid FROM tag WHERE CIRCLE(180, 0, 10000)", "full-scan", e.Tag.NumContainers()},
			{"SELECT objid FROM photoobj WHERE mjd < 0", "zone-scan", 0},
			{"SELECT objid FROM tag WHERE r < 18 AND r > 21", "empty", 0},
		} {
			plan := mustPlan(t, e, tc.q)
			sc := plan.root.(*scanOp)
			n := plan.Describe()
			if n.Access != tc.access {
				t.Fatalf("shards=%d %q: access %q, want %q", shards, tc.q, n.Access, tc.access)
			}
			if len(n.ContainersPerShard) != shards {
				t.Fatalf("shards=%d %q: containers_per_shard %v, want one count per shard",
					shards, tc.q, n.ContainersPerShard)
			}
			got := sum(n.ContainersPerShard)
			dispatched := 0
			for _, m := range sc.morsels {
				dispatched += len(m)
			}
			if got != n.Containers-n.ZonePruned || got != len(sc.containers) || got != dispatched {
				t.Errorf("shards=%d %q: containers_per_shard %v sums to %d; containers %d − zone_pruned %d, kept %d, dispatched %d",
					shards, tc.q, n.ContainersPerShard, got, n.Containers, n.ZonePruned, len(sc.containers), dispatched)
			}
			if (tc.want < 0 && got == 0) || (tc.want >= 0 && got != tc.want) {
				t.Errorf("shards=%d %q: reads %d containers, want %d", shards, tc.q, got, tc.want)
			}
		}
	}
}

// planShapes is every statement shape in FuzzParse's seed corpus, with the
// RECT and flag() seeds made valid (argument order; a table with flags),
// plus provably false predicates on a select, a join side and a set-op
// branch.
var planShapes = []string{
	"SELECT objid FROM tag",
	"SELECT * FROM photoobj WHERE r < 20",
	"SELECT objid, ra, dec FROM tag WHERE r < 21 AND u - g > 0.8",
	"SELECT objid FROM tag WHERE CIRCLE(185.0, 32.0, 15)",
	"SELECT objid FROM photoobj WHERE RECT(10, 20, -5, 5)",
	"SELECT COUNT(*) FROM tag WHERE class = 'GALAXY'",
	"SELECT SUM(r) FROM tag",
	"SELECT AVG(redshift) FROM specobj WHERE sn > 5",
	"SELECT MIN(r) FROM tag WHERE NOT (g < 15 OR r > 22)",
	"SELECT objid, r FROM tag ORDER BY r DESC LIMIT 10",
	"SELECT objid FROM photoobj WHERE flag('SATURATED')",
	"SELECT objid FROM tag WHERE sqrt(pow(u - g, 2)) < 1.5",
	"SELECT objid FROM tag WHERE r < 20 UNION SELECT objid FROM tag WHERE g < 20",
	"SELECT objid FROM tag INTERSECT SELECT objid FROM specobj",
	"SELECT objid FROM tag MINUS SELECT objid FROM tag WHERE r < 19",
	"(SELECT objid FROM tag) UNION (SELECT objid FROM tag)",
	"SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18",
	"SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.u - p.g > s.redshift ORDER BY s.redshift DESC LIMIT 10",
	"SELECT COUNT(*) FROM photoobj p JOIN specobj s ON p.objid = s.objid",
	"SELECT photo.objid FROM photo JOIN spec ON photo.objid = spec.objid",
	"SELECT p.objid FROM photoobj p JOIN specobj s ON p.r = s.sn",
	"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid",
	"SELECT p.objid, t.objid FROM NEIGHBORS(photoobj p, tag t, 2)",
	"SELECT a.objid FROM NEIGHBORS(tag a, tag b, 1) WHERE a.r < 20 AND b.r < 20 AND CIRCLE(185, 32, 30)",
	"SELECT t.objid FROM tag t WHERE t.r < 20 ORDER BY t.r",
	"SELECT objid FROM tag WHERE r < 18 AND r > 21",
	"SELECT p.objid FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18 AND p.r > 21",
	"SELECT objid FROM tag WHERE r < 20 UNION SELECT objid FROM tag WHERE g < 18 AND g > 21",
}

// leafSelects lists a statement's distinct leaf selects in plan-tree order:
// a join's left then right side (one, when the sides share a scan), a set
// operation's left then right branch.
func leafSelects(p *query.Prepared) []*query.CompiledSelect {
	switch {
	case p.Select != nil:
		return []*query.CompiledSelect{p.Select}
	case p.Join != nil && p.Join.Right == p.Join.Left:
		return []*query.CompiledSelect{p.Join.Left}
	case p.Join != nil:
		return []*query.CompiledSelect{p.Join.Left, p.Join.Right}
	default:
		return append(leafSelects(p.Left), leafSelects(p.Right)...)
	}
}

// TestPlanEveryStatementShape plans every statement shape on a three-table
// archive: Describe and Text render, join and set-op nodes have two
// children (a self-join on one shared scan, BUILD self, has one), the text
// has one line per operator, and each scan carries the zone bounds its
// WHERE yields.
func TestPlanEveryStatementShape(t *testing.T) {
	e, _, _ := testArchive(t, 3000, 5)
	for _, q := range planShapes {
		prep, err := query.PrepareString(q)
		if err != nil {
			t.Errorf("prepare %q: %v", q, err)
			continue
		}
		plan, err := e.Plan(prep)
		if err != nil {
			t.Errorf("plan %q: %v", q, err)
			continue
		}
		var scans []*OpNode
		nodes := 0
		var walk func(n *OpNode)
		walk = func(n *OpNode) {
			nodes++
			switch n.Op {
			case "scan":
				scans = append(scans, n)
			case "hash-join", "neighbor-join", "union", "intersect", "minus":
				want := 2
				if n.BuildSide == "self" {
					want = 1
				}
				if len(n.Children) != want {
					t.Errorf("%q: %s node has %d children, want %d", q, n.Op, len(n.Children), want)
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(plan.Describe())
		if lines := strings.Count(plan.Text(), "\n"); lines != nodes {
			t.Errorf("%q: text has %d lines for %d operators:\n%s", q, lines, nodes, plan.Text())
		}
		leaves := leafSelects(prep)
		if len(scans) != len(leaves) {
			t.Fatalf("%q: %d scan nodes for %d leaf selects", q, len(scans), len(leaves))
		}
		for i, cs := range leaves {
			if (cs.Bounds != nil) != (len(scans[i].Bounds) > 0) {
				t.Errorf("%q: scan %d bounds %q for WHERE bounds %v", q, i, scans[i].Bounds, cs.Bounds)
			}
			if cs.Bounds != nil && cs.Bounds.Never &&
				(scans[i].Access != "empty" || !strings.HasPrefix(scans[i].Bounds[0], "never")) {
				t.Errorf("%q: always-false scan %d: access %q, bounds %q", q, i, scans[i].Access, scans[i].Bounds)
			}
		}
	}
}

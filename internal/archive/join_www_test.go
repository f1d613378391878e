package archive

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sdss/internal/qe"
	"sdss/internal/query"
)

// explainResp mirrors the /v1/explain response shape.
type explainResp struct {
	Query    string         `json:"query"`
	Columns  []query.Column `json:"columns"`
	Physical *qe.OpNode     `json:"physical"`
	Analyzed bool           `json:"analyzed"`
	Rows     *int64         `json:"rows"`
	Shards   int            `json:"shards"`
	Phystext string         `json:"physical_text"`
}

// TestV1ExplainPhysicalTree: /v1/explain serves a multi-operator physical
// tree for a join, with chosen access paths and cost estimates.
func TestV1ExplainPhysicalTree(t *testing.T) {
	_, srv := newTestServer(t)
	q := "SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18"
	code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape(q))
	if code != 200 {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var resp explainResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	phys := resp.Physical
	if phys == nil || phys.Op != "hash-join" {
		t.Fatalf("physical root = %+v", phys)
	}
	if phys.BuildSide == "" || phys.On == "" {
		t.Errorf("join node incomplete: %+v", phys)
	}
	if len(phys.Children) != 2 {
		t.Fatalf("physical tree has %d children", len(phys.Children))
	}
	for _, c := range phys.Children {
		if c.Op != "scan" || c.Access == "" {
			t.Errorf("scan child missing access path: %+v", c)
		}
		if c.EstCost <= 0 {
			t.Errorf("scan %s has no cost estimate", c.Table)
		}
		if c.Actual != nil {
			t.Errorf("plain explain carries actuals: %+v", c.Actual)
		}
		// Both join sides report the containers they read per shard.
		if len(c.ContainersPerShard) != resp.Shards {
			t.Errorf("scan %s containers_per_shard = %v, want %d entries", c.Table, c.ContainersPerShard, resp.Shards)
		}
	}
	// The pushed-down WHERE shows on the photoobj side as its zone bounds.
	if b := phys.Children[0].Bounds; phys.Children[0].Table != "photoobj" || len(b) != 1 || !strings.Contains(b[0], "r ∈") {
		t.Errorf("photoobj scan bounds = %q (pushdown not visible)", b)
	}
	if resp.Phystext == "" || resp.Rows != nil {
		t.Errorf("physical_text empty or rows set without analyze")
	}
	// Columns carry qualified names.
	if len(resp.Columns) != 2 || resp.Columns[0].Name != "p.objid" {
		t.Errorf("columns = %+v", resp.Columns)
	}
}

// TestV1ExplainCoverDepth: the join side carrying the region reports the
// HTM depth it was covered to, in the JSON as cover_depth and in the text
// plan as COVER; the side with no region reports none. With CoverDepth 0
// the depth comes from the store's density, between its container depth
// and qe.DefaultCoverDepth; an explicit CoverDepth is reported as given.
func TestV1ExplainCoverDepth(t *testing.T) {
	base := buildEngine(t)
	q := "SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE CIRCLE(185, 32, 30)"
	for _, explicit := range []int{0, 12} {
		e := &qe.Engine{Photo: base.Photo, Tag: base.Tag, Spec: base.Spec, CoverDepth: explicit}
		srv := httptest.NewServer(NewWWW(e).Handler())
		code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape(q))
		srv.Close()
		if code != 200 {
			t.Fatalf("explain = %d: %s", code, body)
		}
		var resp explainResp
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Physical == nil || len(resp.Physical.Children) != 2 {
			t.Fatalf("physical tree = %+v", resp.Physical)
		}
		var depth int
		for _, c := range resp.Physical.Children {
			switch {
			case c.Table == "photoobj":
				depth = c.CoverDepth
			case c.CoverDepth != 0:
				t.Errorf("CoverDepth=%d: %s scan has no region but reports cover depth %d", explicit, c.Table, c.CoverDepth)
			}
		}
		lo, hi := base.Photo.ContainerDepth(), qe.DefaultCoverDepth
		if explicit > 0 {
			lo, hi = explicit, explicit
		}
		if depth < lo || depth > hi {
			t.Errorf("CoverDepth=%d: photoobj scan covered at depth %d, want within [%d, %d]", explicit, depth, lo, hi)
		}
		if want := fmt.Sprintf(" COVER %d ", depth); !strings.Contains(resp.Phystext, want) {
			t.Errorf("CoverDepth=%d: physical_text lacks %q:\n%s", explicit, want, resp.Phystext)
		}
		if !strings.Contains(string(body), `"cover_depth":`) {
			t.Errorf("CoverDepth=%d: explain JSON lacks a cover_depth key", explicit)
		}
	}
}

// TestV1ExplainNeighborJoin: a NEIGHBORS query explains as a neighbor-join
// operator whose JSON carries the planner's chosen partition depth and a
// non-trivial cardinality estimate — the knobs an operator reads to judge the
// spatial plan.
func TestV1ExplainNeighborJoin(t *testing.T) {
	_, srv := newTestServer(t)
	q := "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid"
	code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape(q))
	if code != 200 {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var resp explainResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	phys := resp.Physical
	if phys == nil || phys.Op != "neighbor-join" {
		t.Fatalf("physical root = %+v", phys)
	}
	if phys.PartitionDepth <= 0 {
		t.Errorf("neighbor-join explain has no partition_depth: %+v", phys)
	}
	if phys.BuildSide == "" {
		t.Errorf("neighbor-join explain has no build side: %+v", phys)
	}
	if phys.EstRows <= 1 {
		t.Errorf("neighbor-join est_rows = %g, want a real pair-density estimate", phys.EstRows)
	}
	// The raw JSON must spell the field partition_depth for API clients.
	var raw struct {
		Physical map[string]json.RawMessage `json:"physical"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Physical["partition_depth"]; !ok {
		t.Error("explain JSON lacks a partition_depth key on the join operator")
	}
}

// TestV1ExplainAnalyze: ?analyze=1 executes and reports actual rows per
// operator alongside the estimates.
func TestV1ExplainAnalyze(t *testing.T) {
	_, srv := newTestServer(t)
	q := "SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 20"
	code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape(q)+"&analyze=1")
	if code != 200 {
		t.Fatalf("explain analyze = %d: %s", code, body)
	}
	var resp explainResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Analyzed || resp.Rows == nil {
		t.Fatalf("analyze metadata missing: analyzed=%v rows=%v", resp.Analyzed, resp.Rows)
	}
	phys := resp.Physical
	if phys.Actual == nil {
		t.Fatal("no actuals on the root operator")
	}
	if phys.Actual.RowsOut != *resp.Rows {
		t.Errorf("root rows_out %d != delivered %d", phys.Actual.RowsOut, *resp.Rows)
	}
	for _, c := range phys.Children {
		if c.Actual == nil || c.Actual.RowsIn <= 0 {
			t.Errorf("scan %s actuals = %+v", c.Table, c.Actual)
		}
	}
	// Bad analyze values are rejected.
	code, _ = get(t, srv, "/v1/explain?q="+url.QueryEscape(q)+"&analyze=yes")
	if code != 400 {
		t.Errorf("bad analyze value = %d, want 400", code)
	}
}

// TestV1QueryJoin: joins execute through the bounded interactive query
// endpoint with qualified columns on the wire.
func TestV1QueryJoin(t *testing.T) {
	_, srv := newTestServer(t)
	q := "SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 20 ORDER BY s.z DESC LIMIT 7"
	code, body := get(t, srv, queryPath(q, ""))
	if code != 200 {
		t.Fatalf("join query = %d: %s", code, body)
	}
	var doc struct {
		Columns []query.Column    `json:"columns"`
		Rows    []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Columns) != 2 || doc.Columns[0].Name != "p.objid" || doc.Columns[1].Name != "s.redshift" {
		t.Fatalf("columns = %+v", doc.Columns)
	}
	if len(doc.Rows) == 0 || len(doc.Rows) > 7 {
		t.Fatalf("rows = %d", len(doc.Rows))
	}
	var row map[string]any
	if err := json.Unmarshal(doc.Rows[0], &row); err != nil {
		t.Fatal(err)
	}
	if _, ok := row["p.objid"]; !ok {
		t.Errorf("row keys = %v, want qualified names", row)
	}
	// NEIGHBORS through the same endpoint.
	q2 := "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 5) WHERE a.objid < b.objid LIMIT 20"
	code, body = get(t, srv, queryPath(q2, ""))
	if code != 200 {
		t.Fatalf("neighbors query = %d: %s", code, body)
	}
	// Parse errors surface with positions.
	code, body = get(t, srv, queryPath("SELECT p.objid FROM photo p JOIN", ""))
	if code != 400 {
		t.Fatalf("bad join query = %d", code)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e["error"] == "" {
		t.Error("no error body")
	}
}

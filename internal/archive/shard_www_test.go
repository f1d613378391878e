package archive

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sdss/internal/load"
	"sdss/internal/qe"
	"sdss/internal/skygen"
)

// newShardedServer serves an archive whose stores are split across slices.
func newShardedServer(t testing.TB, shards int) (*WWW, *httptest.Server) {
	t.Helper()
	photo, spec, err := skygen.GenerateAll(skygen.Default(1, 3000), 1)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := load.NewTarget("", 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	www := NewWWW(&qe.Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec})
	srv := httptest.NewServer(www.Handler())
	t.Cleanup(srv.Close)
	return www, srv
}

func TestV1StatusReportsShards(t *testing.T) {
	_, srv := newShardedServer(t, 4)
	code, body := get(t, srv, "/v1/status")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var st struct {
		Shards       int     `json:"shards"`
		ShardRecords []int64 `json:"shard_records"`
		PhotoRecords int64   `json:"photo_records"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 {
		t.Errorf("shards = %d, want 4", st.Shards)
	}
	if len(st.ShardRecords) != 4 {
		t.Fatalf("shard_records has %d entries, want 4", len(st.ShardRecords))
	}
	var sum int64
	for i, n := range st.ShardRecords {
		if n == 0 {
			t.Errorf("shard %d reports no records", i)
		}
		sum += n
	}
	if sum != st.PhotoRecords {
		t.Errorf("shard_records sum %d != photo_records %d", sum, st.PhotoRecords)
	}
}

// TestV1ExplainReportsFanout: on a 4-shard archive the scan node reports
// the containers it reads on each shard, summing to what survives pruning.
func TestV1ExplainReportsFanout(t *testing.T) {
	_, srv := newShardedServer(t, 4)
	code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape("SELECT objid FROM tag WHERE r < 21"))
	if code != 200 {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var doc explainResp
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Shards != 4 {
		t.Errorf("shards = %d, want 4", doc.Shards)
	}
	scan := doc.Physical
	if scan == nil || scan.Op != "scan" || scan.Table != "tag" || len(scan.ContainersPerShard) != 4 {
		t.Fatalf("physical = %+v", scan)
	}
	total := 0
	for _, c := range scan.ContainersPerShard {
		total += c
	}
	if total != scan.Containers-scan.ZonePruned || total == 0 {
		t.Fatalf("per-shard counts %v inconsistent with containers %d - zone_pruned %d",
			scan.ContainersPerShard, scan.Containers, scan.ZonePruned)
	}
	if !strings.Contains(doc.Phystext, "per_shard=") {
		t.Errorf("physical_text lacks the per-shard counts:\n%s", doc.Phystext)
	}
}

// TestV1QueryShardedMatchesSingle runs the same bounded query against a
// 1-shard and a 4-shard server and requires identical wire output for an
// ordered query (the ordering rules make it deterministic).
func TestV1QueryShardedMatchesSingle(t *testing.T) {
	_, one := newShardedServer(t, 1)
	_, four := newShardedServer(t, 4)
	path := queryPath("SELECT objid, r FROM tag WHERE r < 21.5 ORDER BY r LIMIT 40", "format=csv")
	code1, body1 := get(t, one, path)
	code4, body4 := get(t, four, path)
	if code1 != 200 || code4 != 200 {
		t.Fatalf("status %d vs %d", code1, code4)
	}
	if string(body1) != string(body4) {
		t.Fatalf("sharded CSV diverged:\n1 shard:\n%s\n4 shards:\n%s", body1, body4)
	}
}

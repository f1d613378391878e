package archive

import (
	"encoding/json"
	"net/url"
	"strings"
	"testing"
)

// TestV1StatusReportsZoneBytes: the status page surfaces the zone-map
// footprint so operators can see the cost of the per-container statistics.
func TestV1StatusReportsZoneBytes(t *testing.T) {
	www, srv := newTestServer(t)
	// Freshen zones the way a loader would (Sort builds them).
	www.Engine.Photo.BuildZones()
	www.Engine.Tag.BuildZones()
	www.Engine.Spec.BuildZones()
	code, body := get(t, srv, "/v1/status")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var st struct {
		ZoneMapBytes int64 `json:"zone_map_bytes"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ZoneMapBytes <= 0 {
		t.Errorf("zone_map_bytes = %d, want > 0", st.ZoneMapBytes)
	}
}

// TestV1ExplainReportsZonePruning: the scan node carries the predicate's
// zone bounds, and its containers_per_shard counts only what survives zone
// pruning.
func TestV1ExplainReportsZonePruning(t *testing.T) {
	_, srv := newTestServer(t)
	explain := func(q string) *explainResp {
		t.Helper()
		code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape(q))
		if code != 200 {
			t.Fatalf("status = %d: %s", code, body)
		}
		var out explainResp
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Physical == nil || out.Physical.Op != "scan" {
			t.Fatalf("physical = %+v", out.Physical)
		}
		return &out
	}
	sum := func(counts []int) int {
		n := 0
		for _, c := range counts {
			n += c
		}
		return n
	}

	// An always-false predicate plans as empty and reads nothing.
	out := explain("SELECT objid FROM tag WHERE r < 18 AND r > 21")
	scan := out.Physical
	if len(scan.Bounds) != 1 || !strings.HasPrefix(scan.Bounds[0], "never") {
		t.Errorf("always-false bounds = %q", scan.Bounds)
	}
	if scan.Access != "empty" || len(scan.ContainersPerShard) != out.Shards || sum(scan.ContainersPerShard) != 0 {
		t.Errorf("always-false scan: access %q, per shard %v; want empty, none read", scan.Access, scan.ContainersPerShard)
	}

	// mjd is always positive in the generator: the zone maps prune every
	// candidate container.
	scan = explain("SELECT objid FROM photoobj WHERE mjd < 0").Physical
	if scan.Containers == 0 || scan.ZonePruned != scan.Containers || sum(scan.ContainersPerShard) != 0 {
		t.Errorf("mjd < 0: pruned %d of %d, reads %v per shard", scan.ZonePruned, scan.Containers, scan.ContainersPerShard)
	}

	// A satisfiable cut reports bounds and a consistent read/pruned split.
	out = explain("SELECT objid, r FROM tag WHERE r < 18")
	scan = out.Physical
	if len(scan.Bounds) != 1 || !strings.Contains(scan.Bounds[0], "r ∈") {
		t.Errorf("bounds = %v", scan.Bounds)
	}
	if read := sum(scan.ContainersPerShard); read+scan.ZonePruned != scan.Containers {
		t.Errorf("read %d + pruned %d != containers %d", read, scan.ZonePruned, scan.Containers)
	}
	if !strings.Contains(out.Phystext, "ZONES [") {
		t.Errorf("physical_text lacks zone bounds: %q", out.Phystext)
	}
}

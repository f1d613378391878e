package archive

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sdss/internal/load"
	"sdss/internal/qe"
	"sdss/internal/skygen"
)

func buildEngine(t testing.TB) *qe.Engine {
	t.Helper()
	photo, spec, err := skygen.GenerateAll(skygen.Default(1, 3000), 1)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := load.NewTarget("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.LoadChunk(&skygen.Chunk{Photo: photo, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	return &qe.Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}
}

func newTestServer(t testing.TB) (*WWW, *httptest.Server) {
	t.Helper()
	www := NewWWW(buildEngine(t))
	srv := httptest.NewServer(www.Handler())
	t.Cleanup(srv.Close)
	return www, srv
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func queryPath(q string, extra string) string {
	p := "/v1/query?q=" + url.QueryEscape(q)
	if extra != "" {
		p += "&" + extra
	}
	return p
}

func TestV1Status(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv, "/v1/status")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st["version"] != "v1" {
		t.Errorf("version = %v, want v1", st["version"])
	}
	if st["photo_records"].(float64) == 0 {
		t.Error("status reports empty archive")
	}
}

func TestV1Tables(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv, "/v1/tables")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var out struct {
		Tables []struct {
			Name    string `json:"name"`
			Records int64  `json:"records"`
			Columns []struct {
				Name string `json:"name"`
				Type string `json:"type"`
			} `json:"columns"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(out.Tables))
	}
	byName := map[string]int{}
	for i, tb := range out.Tables {
		byName[tb.Name] = i
	}
	tag, ok := byName["tag"]
	if !ok {
		t.Fatalf("no tag table in %v", byName)
	}
	if out.Tables[tag].Records == 0 {
		t.Error("tag table reports zero records")
	}
	cols := out.Tables[tag].Columns
	if len(cols) != 14 {
		t.Errorf("tag has %d columns, want 14", len(cols))
	}
	if cols[0].Name != "objid" || cols[0].Type != "id" {
		t.Errorf("tag col 0 = %+v, want objid/id", cols[0])
	}
}

func TestV1QueryJSON(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv, queryPath("SELECT objid, ra, dec, r FROM tag WHERE r < 20", ""))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var doc struct {
		Columns []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"columns"`
		Rows      []map[string]any `json:"rows"`
		RowCount  int              `json:"row_count"`
		Truncated bool             `json:"truncated"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"objid", "ra", "dec", "r"}
	if len(doc.Columns) != len(wantCols) {
		t.Fatalf("got %d columns, want %d", len(doc.Columns), len(wantCols))
	}
	for i, name := range wantCols {
		if doc.Columns[i].Name != name {
			t.Errorf("column %d = %q, want %q", i, doc.Columns[i].Name, name)
		}
	}
	if doc.Columns[0].Type != "id" || doc.Columns[1].Type != "float" {
		t.Errorf("column types = %v", doc.Columns)
	}
	if doc.RowCount == 0 || len(doc.Rows) != doc.RowCount {
		t.Fatalf("row_count = %d, rows = %d", doc.RowCount, len(doc.Rows))
	}
	row := doc.Rows[0]
	for _, name := range wantCols {
		if _, ok := row[name]; !ok {
			t.Errorf("row missing named field %q: %v", name, row)
		}
	}
	if r := row["r"].(float64); r >= 20 {
		t.Errorf("row violates predicate: r = %v", r)
	}
}

func TestV1QueryCSV(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv, queryPath("SELECT objid, ra, dec, r FROM tag WHERE r < 20", "format=csv"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	cr := csv.NewReader(bytes.NewReader(body))
	records, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("csv has %d records, want header + rows", len(records))
	}
	header := records[0]
	want := []string{"objid", "ra", "dec", "r"}
	if strings.Join(header, ",") != strings.Join(want, ",") {
		t.Errorf("csv header = %v, want %v (real column names from the compiler)", header, want)
	}
	for _, rec := range records[1:] {
		if len(rec) != 4 {
			t.Fatalf("csv row has %d fields: %v", len(rec), rec)
		}
	}
}

func TestV1QueryNDJSON(t *testing.T) {
	_, srv := newTestServer(t)
	code, body := get(t, srv, queryPath("SELECT objid, r FROM tag WHERE r < 20", "format=ndjson"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("no ndjson rows")
	}
	for _, ln := range lines {
		var row map[string]any
		if err := json.Unmarshal(ln, &row); err != nil {
			t.Fatalf("bad ndjson line %q: %v", ln, err)
		}
		if _, ok := row["error"]; ok {
			t.Fatalf("stream error: %s", ln)
		}
		if _, ok := row["objid"]; !ok {
			t.Fatalf("row missing objid field: %s", ln)
		}
	}
}

func TestV1QueryTruncationMarker(t *testing.T) {
	www, srv := newTestServer(t)
	www.MaxRows = 7

	// NDJSON: exactly 7 rows plus one {"truncated":true,"rows":7} trailer.
	code, body := get(t, srv, queryPath("SELECT objid FROM tag", "format=ndjson"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 7 rows + 1 trailer", len(lines))
	}
	var trailer struct {
		Truncated bool `json:"truncated"`
		Rows      int  `json:"rows"`
	}
	if err := json.Unmarshal(lines[7], &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Truncated || trailer.Rows != 7 {
		t.Errorf("trailer = %+v, want truncated=true rows=7", trailer)
	}

	// JSON document carries the flag.
	code, body = get(t, srv, queryPath("SELECT objid FROM tag", ""))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var doc struct {
		RowCount  int  `json:"row_count"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RowCount != 7 || !doc.Truncated {
		t.Errorf("json doc = %+v, want 7 truncated rows", doc)
	}

	// CSV: trailing comment marks the cut.
	code, body = get(t, srv, queryPath("SELECT objid FROM tag", "format=csv"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !bytes.Contains(body, []byte("# truncated after 7 rows")) {
		t.Errorf("csv lacks truncation comment:\n%s", body)
	}

	// An under-cap query must NOT carry the marker.
	code, body = get(t, srv, queryPath("SELECT objid FROM tag LIMIT 3", "format=ndjson"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	if bytes.Contains(body, []byte("truncated")) {
		t.Errorf("un-truncated stream carries marker:\n%s", body)
	}
}

func TestV1QueryLimitOffset(t *testing.T) {
	_, srv := newTestServer(t)
	q := "SELECT objid, r FROM tag ORDER BY r LIMIT 10"
	code, body := get(t, srv, queryPath(q, ""))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var all struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(all.Rows))
	}
	// Page 2 of size 3 should equal rows 3..5 of the full result.
	code, body = get(t, srv, queryPath(q, "limit=3&offset=3"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var page struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != 3 {
		t.Fatalf("page has %d rows, want 3", len(page.Rows))
	}
	for i, row := range page.Rows {
		if row["objid"] != all.Rows[i+3]["objid"] {
			t.Errorf("page row %d = %v, want %v", i, row["objid"], all.Rows[i+3]["objid"])
		}
	}
}

func TestV1QueryErrors(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/query", 400},
		{queryPath("SELECT bogus FROM tag", ""), 400},
		{queryPath("SELECT bogus FROM tag", "format=csv"), 400},
		{queryPath("SELECT bogus FROM tag", "format=ndjson"), 400},
		{queryPath("NOT A QUERY", ""), 400},
		{queryPath("SELECT objid FROM tag", "format=xml"), 400},
		{queryPath("SELECT objid FROM tag", "limit=-1"), 400},
		{queryPath("SELECT objid FROM tag", "timeout=banana"), 400},
	}
	for _, c := range cases {
		resp, err := srv.Client().Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.path, resp.StatusCode, c.want)
			continue
		}
		// Error bodies are JSON with an "error" field, headers uncommitted
		// at failure time so the status code is real.
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: error content-type = %q", c.path, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", c.path, body)
		}
	}
}

func TestV1Cone(t *testing.T) {
	www, srv := newTestServer(t)

	// Center on a real object.
	rows, err := www.Engine.ExecuteString(context.Background(), "SELECT ra, dec FROM tag LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil || len(res) == 0 {
		t.Fatalf("seed query failed: %v", err)
	}
	ra, dec := res[0].Values[0], res[0].Values[1]

	path := fmt.Sprintf("/v1/cone?ra=%g&dec=%g&radius=30&cols=%s", ra, dec, url.QueryEscape("objid, ra, dec, r"))
	code, body := get(t, srv, path)
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var doc struct {
		Columns []struct {
			Name string `json:"name"`
		} `json:"columns"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) == 0 {
		t.Error("cone around a real object returned nothing")
	}
	if len(doc.Columns) != 4 || doc.Columns[3].Name != "r" {
		t.Errorf("cone columns = %v", doc.Columns)
	}

	// Default projection is the full tag schema.
	code, body = get(t, srv, fmt.Sprintf("/v1/cone?ra=%g&dec=%g&radius=30", ra, dec))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Columns) != 14 {
		t.Errorf("default cone projection has %d columns, want all 14", len(doc.Columns))
	}

	// Error paths.
	for _, p := range []string{
		"/v1/cone?ra=abc&dec=1&radius=2",
		"/v1/cone?ra=1&dec=1",
		"/v1/cone?ra=1&dec=1&radius=2&table=nebula",
		"/v1/cone?ra=1&dec=1&radius=2&cols=bogus",
	} {
		code, _ := get(t, srv, p)
		if code != 400 {
			t.Errorf("%s: status = %d, want 400", p, code)
		}
	}
}

func TestV1Explain(t *testing.T) {
	_, srv := newTestServer(t)
	q := "SELECT objid, r FROM tag WHERE CIRCLE(185, 32, 10) AND r < 20 ORDER BY r LIMIT 5"
	code, body := get(t, srv, "/v1/explain?q="+url.QueryEscape(q))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var out explainResp
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// The physical tree is the only plan: the logical tree, its text and
	// the separate fan-out report are gone.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"plan", "text", "fanout"} {
		if _, ok := keys[k]; ok {
			t.Errorf("explain response carries removed key %q", k)
		}
	}
	limit := out.Physical
	if limit == nil || limit.Op != "limit" || limit.Limit != 5 || len(limit.Children) != 1 ||
		len(limit.Children[0].Children) != 1 {
		t.Fatalf("physical root = %+v, want limit 5 over sort over scan", limit)
	}
	scan := limit.Children[0].Children[0]
	if scan.Op != "scan" || scan.Table != "tag" {
		t.Errorf("leaf = %+v", scan)
	}
	if !strings.HasPrefix(scan.Access, "htm-index") {
		t.Errorf("CIRCLE query scan access = %q, want the htm index", scan.Access)
	}
	if len(out.Columns) != 2 || out.Columns[0].Name != "objid" {
		t.Errorf("explain columns = %v", out.Columns)
	}
	if !strings.Contains(out.Phystext, "SCAN tag VIA htm-index") {
		t.Errorf("physical_text = %q", out.Phystext)
	}

	// A set operation explains as a two-child tree.
	code, body = get(t, srv, "/v1/explain?q="+url.QueryEscape(
		"SELECT objid FROM tag WHERE r < 18 UNION SELECT objid FROM tag WHERE g < 18"))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var u explainResp
	if err := json.Unmarshal(body, &u); err != nil {
		t.Fatal(err)
	}
	if u.Physical == nil || u.Physical.Op != "union" || len(u.Physical.Children) != 2 {
		t.Errorf("union plan = %+v", u.Physical)
	}

	if code, _ := get(t, srv, "/v1/explain?q=garbage"); code != 400 {
		t.Errorf("bad explain query status = %d, want 400", code)
	}
}

func postJSON(t *testing.T, srv *httptest.Server, path string, v any) (int, []byte) {
	t.Helper()
	b, _ := json.Marshal(v)
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func waitForJob(t *testing.T, srv *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get(t, srv, "/v1/jobs/"+id)
		if code != 200 {
			t.Fatalf("poll status = %d: %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job reached %s (error %q), want %s", st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

func TestV1JobLifecycle(t *testing.T) {
	_, srv := newTestServer(t)

	// Submit.
	code, body := postJSON(t, srv, "/v1/jobs", map[string]string{
		"query": "SELECT objid, ra, dec, r FROM tag WHERE r < 21",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != JobQueued && st.State != JobRunning) {
		t.Fatalf("initial status = %+v", st)
	}

	// Poll to done.
	done := waitForJob(t, srv, st.ID, JobDone)
	if done.RowCount == 0 {
		t.Error("done job has no rows")
	}

	// Fetch rows as JSON: named fields from the compiler's projection.
	code, body = get(t, srv, "/v1/jobs/"+st.ID+"/rows")
	if code != 200 {
		t.Fatalf("rows status = %d: %s", code, body)
	}
	var doc struct {
		Columns []struct {
			Name string `json:"name"`
		} `json:"columns"`
		Rows     []map[string]any `json:"rows"`
		RowCount int              `json:"row_count"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RowCount != done.RowCount || len(doc.Rows) != doc.RowCount {
		t.Errorf("rows = %d, status said %d", doc.RowCount, done.RowCount)
	}
	if len(doc.Columns) != 4 || doc.Columns[3].Name != "r" {
		t.Errorf("job columns = %v", doc.Columns)
	}

	// Fetch rows as CSV too.
	code, body = get(t, srv, "/v1/jobs/"+st.ID+"/rows?format=csv")
	if code != 200 {
		t.Fatalf("csv rows status = %d: %s", code, body)
	}
	if !bytes.HasPrefix(body, []byte("objid,ra,dec,r\n")) {
		t.Errorf("job csv header wrong:\n%.80s", body)
	}

	// The job shows up in the list.
	code, body = get(t, srv, "/v1/jobs")
	if code != 200 {
		t.Fatalf("list status = %d", code)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}
}

func TestV1JobErrorsAndExpiry(t *testing.T) {
	www, srv := newTestServer(t)
	www.Jobs = NewJobManager(www.Engine, JobConfig{TTL: 20 * time.Millisecond})

	// Bad submissions.
	if code, _ := postJSON(t, srv, "/v1/jobs", map[string]string{"query": "SELECT bogus FROM tag"}); code != 400 {
		t.Errorf("bad job query status = %d, want 400", code)
	}
	if code, _ := postJSON(t, srv, "/v1/jobs", map[string]string{}); code != 400 {
		t.Errorf("empty job status = %d, want 400", code)
	}

	// Unknown job IDs.
	if code, _ := get(t, srv, "/v1/jobs/job-999"); code != 404 {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/v1/jobs/job-999/rows"); code != 404 {
		t.Errorf("unknown job rows status = %d, want 404", code)
	}

	// A real job expires after its TTL.
	code, body := postJSON(t, srv, "/v1/jobs", map[string]string{"query": "SELECT objid FROM tag LIMIT 5"})
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitForJob(t, srv, st.ID, JobDone)
	time.Sleep(50 * time.Millisecond)
	if code, _ := get(t, srv, "/v1/jobs/"+st.ID); code != 404 {
		t.Errorf("expired job status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/v1/jobs/"+st.ID+"/rows"); code != 404 {
		t.Errorf("expired job rows status = %d, want 404", code)
	}
}

func TestJobAdmissionControl(t *testing.T) {
	engine := buildEngine(t)
	m := NewJobManager(engine, JobConfig{MaxConcurrent: 1, MaxQueued: 1})

	// Occupy the single execution slot so submissions stack up.
	m.mu.Lock()
	m.running = 1
	m.mu.Unlock()

	st, err := m.Submit("SELECT objid FROM tag LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Fatalf("with slot busy, state = %s, want queued", st.State)
	}
	if _, err := m.Submit("SELECT objid FROM tag LIMIT 1"); err != ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}

	// Free the slot the way a finishing job would: start the queued job.
	m.mu.Lock()
	m.running--
	next := m.queue[0]
	m.queue = m.queue[1:]
	m.startLocked(next)
	m.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok := m.Get(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if got.State == JobDone {
			if got.RowCount != 1 {
				t.Errorf("row count = %d, want 1", got.RowCount)
			}
			break
		}
		if got.State.terminal() {
			t.Fatalf("job reached %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job never ran (state %s)", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// With the queue drained, new submissions run immediately.
	st2, err := m.Submit("SELECT objid FROM tag LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobRunning && st2.State != JobDone {
		t.Errorf("free-slot submit state = %s", st2.State)
	}
}

func TestV1JobCancel(t *testing.T) {
	engine := buildEngine(t)
	m := NewJobManager(engine, JobConfig{MaxConcurrent: 1, MaxQueued: 4})
	m.mu.Lock()
	m.running = 1 // park submissions in the queue
	m.mu.Unlock()

	st, err := m.Submit("SELECT objid FROM tag")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Cancel(st.ID)
	if !ok || got.State != JobCanceled {
		t.Fatalf("cancel queued job = %+v ok=%v", got, ok)
	}
	// The canceled job left the queue.
	m.mu.Lock()
	qlen := len(m.queue)
	m.mu.Unlock()
	if qlen != 0 {
		t.Errorf("queue length after cancel = %d", qlen)
	}
	if _, ok := m.Cancel("job-999"); ok {
		t.Error("cancel of unknown job reported ok")
	}
}

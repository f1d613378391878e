package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"sdss/internal/qe"
	"sdss/internal/query"
	"sdss/internal/store"
)

// WWW is the public web tier of Figure 2 — "A WWW server will provide
// public access" — rebuilt as the versioned REST API the SkyServer papers
// describe. Interactive queries are bounded (row cap + timeout) and stream
// schema-carrying rows in three formats; long-running mining queries go
// through the asynchronous job tier with admission control.
//
// Endpoints (all under /v1):
//
//	GET  /v1/status             archive holdings + job-queue depth
//	GET  /v1/tables             schema discovery: tables, columns, types
//	GET  /v1/query              ?q= &format=json|csv|ndjson &limit= &offset= &timeout=
//	GET  /v1/explain            ?q= [&analyze=1] → logical QET + physical operator tree
//	                            (cost-based access paths; analyze adds actual rows/timing)
//	GET  /v1/cone               ?ra= &dec= &radius= [&table= &cols= &format= ...]
//	POST /v1/jobs               {"query": "..."} → 202 + job status
//	GET  /v1/jobs               list jobs
//	GET  /v1/jobs/{id}          poll one job
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET  /v1/jobs/{id}/rows     fetch a done job's rows (same formats)
type WWW struct {
	Engine *qe.Engine
	// Jobs is the asynchronous batch tier.
	Jobs *JobManager
	// MaxRows caps interactive query results (0 = 10000). Clients may ask
	// for less via ?limit=, never more.
	MaxRows int
	// MaxTimeout caps interactive query wall time (0 = 30s). Clients may
	// ask for less via ?timeout=, never more.
	MaxTimeout time.Duration
	// Started is stamped by NewWWW for the status page.
	Started time.Time
}

// NewWWW builds the web tier over a query engine with default bounds.
func NewWWW(engine *qe.Engine) *WWW {
	return &WWW{
		Engine:  engine,
		Jobs:    NewJobManager(engine, JobConfig{}),
		Started: time.Now(),
	}
}

func (w *WWW) maxRows() int {
	if w.MaxRows > 0 {
		return w.MaxRows
	}
	return 10000
}

func (w *WWW) maxTimeout() time.Duration {
	if w.MaxTimeout > 0 {
		return w.MaxTimeout
	}
	return 30 * time.Second
}

// Handler returns the HTTP routing table.
func (w *WWW) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", w.handleStatus)
	mux.HandleFunc("GET /v1/tables", w.handleTables)
	mux.HandleFunc("GET /v1/query", w.handleQuery)
	mux.HandleFunc("GET /v1/explain", w.handleExplain)
	mux.HandleFunc("GET /v1/cone", w.handleCone)
	mux.HandleFunc("POST /v1/jobs", w.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", w.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", w.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", w.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/rows", w.handleJobRows)
	return mux
}

// jsonError answers with a JSON error body. It must be called before any
// response bytes are written.
func jsonError(rw http.ResponseWriter, status int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func (w *WWW) handleStatus(rw http.ResponseWriter, req *http.Request) {
	type status struct {
		Version       string `json:"version"`
		Uptime        string `json:"uptime"`
		PhotoRecords  int64  `json:"photo_records"`
		PhotoBytes    int64  `json:"photo_bytes"`
		TagRecords    int64  `json:"tag_records"`
		SpecRecords   int64  `json:"spec_records"`
		NumContainers int    `json:"containers"`
		// Shards is the scatter width; ShardRecords the per-slice photo
		// record counts, in shard order — the partition-balance view.
		Shards       int     `json:"shards"`
		ShardRecords []int64 `json:"shard_records,omitempty"`
		// Workers is the engine's morsel-pool slot count; GoMaxProcs the
		// runtime's scheduler width — together the parallel capacity behind
		// every /v1/query scatter.
		Workers    int `json:"workers"`
		GoMaxProcs int `json:"gomaxprocs"`
		// ZoneMapBytes is the in-memory footprint of the per-container
		// min/max statistics across every store and slice.
		ZoneMapBytes int64 `json:"zone_map_bytes"`
		// ColBlkEncodedBytes / ColBlkRawBytes compare the compressed
		// column-block footprint against the raw footprint of the columns
		// the resident slabs cover, summed across every store and slice.
		ColBlkEncodedBytes int64 `json:"colblk_encoded_bytes"`
		ColBlkRawBytes     int64 `json:"colblk_raw_bytes"`
		JobsQueued         int   `json:"jobs_queued"`
		JobsRunning        int   `json:"jobs_running"`
		JobsFinished       int   `json:"jobs_finished"`
	}
	st := status{Version: "v1", Uptime: time.Since(w.Started).Round(time.Second).String()}
	st.Shards = w.Engine.NumShards()
	st.Workers = w.Engine.PoolSize()
	st.GoMaxProcs = runtime.GOMAXPROCS(0)
	for _, t := range []struct {
		s       *store.Sharded
		records *int64
	}{{w.Engine.Photo, &st.PhotoRecords}, {w.Engine.Tag, &st.TagRecords}, {w.Engine.Spec, &st.SpecRecords}} {
		if t.s == nil {
			continue
		}
		*t.records = t.s.NumRecords()
		st.ZoneMapBytes += t.s.ZoneBytes()
		enc, raw := t.s.ColBlkBytes()
		st.ColBlkEncodedBytes += enc
		st.ColBlkRawBytes += raw
	}
	if p := w.Engine.Photo; p != nil {
		st.PhotoBytes = p.Bytes()
		st.NumContainers = p.NumContainers()
		st.ShardRecords = p.ShardRecords()
	}
	st.JobsQueued, st.JobsRunning, st.JobsFinished = w.Jobs.Counts()
	writeJSON(rw, http.StatusOK, st)
}

// handleTables serves schema discovery: every queryable table with its
// named, typed columns straight from the compiler's schema tables.
func (w *WWW) handleTables(rw http.ResponseWriter, req *http.Request) {
	type tableInfo struct {
		Name    string         `json:"name"`
		Records int64          `json:"records"`
		Columns []query.Column `json:"columns"`
	}
	var out struct {
		Tables []tableInfo `json:"tables"`
	}
	for _, t := range []query.Table{query.TablePhoto, query.TableTag, query.TableSpec} {
		info := tableInfo{Name: t.String(), Columns: query.TableColumns(t)}
		switch t {
		case query.TablePhoto:
			if w.Engine.Photo != nil {
				info.Records = w.Engine.Photo.NumRecords()
			}
		case query.TableTag:
			if w.Engine.Tag != nil {
				info.Records = w.Engine.Tag.NumRecords()
			}
		case query.TableSpec:
			if w.Engine.Spec != nil {
				info.Records = w.Engine.Spec.NumRecords()
			}
		}
		out.Tables = append(out.Tables, info)
	}
	writeJSON(rw, http.StatusOK, out)
}

// queryBounds parses the shared ?format=&limit=&offset=&timeout= parameters,
// clamping limit and timeout to the server's interactive caps.
func (w *WWW) queryBounds(req *http.Request) (Format, qe.ExecOptions, error) {
	q := req.URL.Query()
	format, err := ParseFormat(q.Get("format"))
	if err != nil {
		return "", qe.ExecOptions{}, err
	}
	opts := qe.ExecOptions{Limit: w.maxRows(), Timeout: w.maxTimeout()}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return "", qe.ExecOptions{}, fmt.Errorf("bad limit %q (want a positive integer)", s)
		}
		if n < opts.Limit {
			opts.Limit = n
		}
	}
	if s := q.Get("offset"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return "", qe.ExecOptions{}, fmt.Errorf("bad offset %q (want a non-negative integer)", s)
		}
		opts.Offset = n
	}
	if s := q.Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return "", qe.ExecOptions{}, fmt.Errorf("bad timeout %q (want a positive duration like 5s)", s)
		}
		if d < opts.Timeout {
			opts.Timeout = d
		}
	}
	return format, opts, nil
}

// handleQuery runs ?q=<query text> under the interactive bounds and serves
// the result in the requested format.
func (w *WWW) handleQuery(rw http.ResponseWriter, req *http.Request) {
	src := req.URL.Query().Get("q")
	if src == "" {
		jsonError(rw, http.StatusBadRequest, "missing q parameter")
		return
	}
	format, opts, err := w.queryBounds(req)
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	w.serveQuery(rw, req, src, format, opts)
}

// handleCone serves ?ra=&dec=&radius= (degrees, degrees, arcmin) cone
// searches — the on-demand finding-chart query. ?table= picks the table
// (default tag) and ?cols= the projection (default every attribute); the
// query is compiled like any other, so the projection's schema flows to the
// wire unchanged.
func (w *WWW) handleCone(rw http.ResponseWriter, req *http.Request) {
	params := req.URL.Query()
	parse := func(name, unit string) (float64, error) {
		v, err := strconv.ParseFloat(params.Get(name), 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s parameter %q (want %s)", name, params.Get(name), unit)
		}
		return v, nil
	}
	ra, err := parse("ra", "degrees")
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	dec, err := parse("dec", "degrees")
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	radius, err := parse("radius", "arcminutes")
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	table := query.TableTag
	if s := params.Get("table"); s != "" {
		table, err = query.ParseTable(s)
		if err != nil {
			jsonError(rw, http.StatusBadRequest, "%s", err)
			return
		}
	}
	cols := params.Get("cols")
	if cols == "" {
		cols = "*"
	}
	format, opts, err := w.queryBounds(req)
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	src := fmt.Sprintf("SELECT %s FROM %s WHERE CIRCLE(%g, %g, %g)",
		cols, table, ra, dec, radius)
	w.serveQuery(rw, req, src, format, opts)
}

// handleExplain compiles ?q= and returns both plans: the logical QET
// (parse/analyze/pushdown output) and the physical operator tree with the
// optimizer's chosen access paths and cost estimates. With ?analyze=1 the
// query also executes — under the interactive time cap, rows discarded —
// and every physical operator reports actual rows-in/rows-out/elapsed next
// to its estimates.
func (w *WWW) handleExplain(rw http.ResponseWriter, req *http.Request) {
	src := req.URL.Query().Get("q")
	if src == "" {
		jsonError(rw, http.StatusBadRequest, "missing q parameter")
		return
	}
	analyze := false
	switch req.URL.Query().Get("analyze") {
	case "", "0", "false":
	case "1", "true":
		analyze = true
	default:
		jsonError(rw, http.StatusBadRequest, "bad analyze parameter (want 1 or 0)")
		return
	}
	prep, err := query.PrepareString(src)
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	plan, err := w.Engine.PlanAnalyze(prep, analyze)
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	var rowCount int64 = -1
	if analyze {
		rows, err := w.Engine.ExecutePlan(req.Context(), plan,
			qe.ExecOptions{Timeout: w.maxTimeout(), Analyze: true})
		if err != nil {
			jsonError(rw, statusForQueryError(err), "%s", err)
			return
		}
		rowCount = 0
		for b := range rows.C {
			rowCount += int64(len(b))
			qe.RecycleBatch(b)
		}
		if err := rows.Err(); err != nil {
			jsonError(rw, statusForQueryError(err), "%s", err)
			return
		}
	}
	// Per-shard fan-out: how many candidate containers each leaf scan will
	// touch on every slice. A fanout error (table not loaded) leaves the
	// plan usable, so it is reported as an empty list, not a failure.
	fanout, _ := w.Engine.Fanout(prep)
	resp := struct {
		Query    string           `json:"query"`
		Columns  []query.Column   `json:"columns"`
		Plan     *query.PlanNode  `json:"plan"`
		Physical *qe.OpNode       `json:"physical"`
		Analyzed bool             `json:"analyzed,omitempty"`
		Rows     *int64           `json:"rows,omitempty"`
		Shards   int              `json:"shards"`
		Fanout   []qe.ShardFanout `json:"fanout,omitempty"`
		Text     string           `json:"text"`
		Phystext string           `json:"physical_text"`
	}{
		Query: src, Columns: prep.Columns(), Plan: prep.Plan(),
		Physical: plan.Describe(), Analyzed: analyze,
		Shards: w.Engine.NumShards(), Fanout: fanout,
		Text: prep.Explain(), Phystext: plan.Text(),
	}
	if analyze {
		resp.Rows = &rowCount
	}
	writeJSON(rw, http.StatusOK, resp)
}

// serveQuery compiles, executes, and encodes one bounded query. The query
// is compiled before any response bytes go out, so compile errors are clean
// 400s with JSON bodies in every format.
func (w *WWW) serveQuery(rw http.ResponseWriter, req *http.Request, src string, format Format, opts qe.ExecOptions) {
	prep, err := query.PrepareString(src)
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	rows, err := w.Engine.ExecuteOpts(req.Context(), prep, opts)
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	defer rows.Close()
	switch format {
	case FormatJSON:
		// Buffered: collect first so errors can still use a clean status.
		doc, err := buildJSONDocument(liveSource(rows))
		if err != nil {
			jsonError(rw, statusForQueryError(err), "%s", err)
			return
		}
		writeJSON(rw, http.StatusOK, doc)
	case FormatNDJSON:
		rw.Header().Set("Content-Type", format.ContentType())
		writeNDJSON(rw, liveSource(rows))
	case FormatCSV:
		rw.Header().Set("Content-Type", format.ContentType())
		writeCSV(rw, liveSource(rows))
	}
}

// statusForQueryError maps execution errors to HTTP statuses.
func statusForQueryError(err error) int {
	if errors.Is(err, qe.ErrTimeout) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// handleJobSubmit accepts {"query": "..."} and enqueues it on the batch
// tier, answering 202 with the job's initial status.
func (w *WWW) handleJobSubmit(rw http.ResponseWriter, req *http.Request) {
	var body struct {
		Query string `json:"query"`
	}
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		jsonError(rw, http.StatusBadRequest, "bad request body: %s", err)
		return
	}
	if body.Query == "" {
		jsonError(rw, http.StatusBadRequest, "missing query field")
		return
	}
	st, err := w.Jobs.Submit(body.Query)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			jsonError(rw, http.StatusServiceUnavailable, "%s", err)
			return
		}
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	writeJSON(rw, http.StatusAccepted, st)
}

func (w *WWW) handleJobList(rw http.ResponseWriter, req *http.Request) {
	writeJSON(rw, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{w.Jobs.List()})
}

func (w *WWW) handleJobGet(rw http.ResponseWriter, req *http.Request) {
	st, ok := w.Jobs.Get(req.PathValue("id"))
	if !ok {
		jsonError(rw, http.StatusNotFound, "no such job %q", req.PathValue("id"))
		return
	}
	writeJSON(rw, http.StatusOK, st)
}

func (w *WWW) handleJobCancel(rw http.ResponseWriter, req *http.Request) {
	st, ok := w.Jobs.Cancel(req.PathValue("id"))
	if !ok {
		jsonError(rw, http.StatusNotFound, "no such job %q", req.PathValue("id"))
		return
	}
	writeJSON(rw, http.StatusOK, st)
}

// handleJobRows serves a done job's materialized rows in any format.
func (w *WWW) handleJobRows(rw http.ResponseWriter, req *http.Request) {
	format, err := ParseFormat(req.URL.Query().Get("format"))
	if err != nil {
		jsonError(rw, http.StatusBadRequest, "%s", err)
		return
	}
	id := req.PathValue("id")
	cols, results, truncated, found, ready := w.Jobs.Rows(id)
	if !found {
		jsonError(rw, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !ready {
		st, _ := w.Jobs.Get(id)
		jsonError(rw, http.StatusConflict, "job %s is %s, not done", id, st.State)
		return
	}
	switch format {
	case FormatJSON:
		doc, err := buildJSONDocument(staticSource(cols, results, truncated))
		if err != nil {
			jsonError(rw, http.StatusInternalServerError, "%s", err)
			return
		}
		writeJSON(rw, http.StatusOK, doc)
	case FormatNDJSON:
		rw.Header().Set("Content-Type", format.ContentType())
		writeNDJSON(rw, staticSource(cols, results, truncated))
	case FormatCSV:
		rw.Header().Set("Content-Type", format.ContentType())
		writeCSV(rw, staticSource(cols, results, truncated))
	}
}

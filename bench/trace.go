package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdss/internal/qe"
	"sdss/internal/query"
)

// span is one timed call into a layer, made from the benchmark's side of
// the layer's exported API. Spans of one operation share OpID; Parent is the
// index of the enclosing span in the trace, -1 for a root.
type span struct {
	OpID   int                `json:"op_id"`
	Name   string             `json:"name"`
	Parent int                `json:"parent"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the measured and the traced path share their code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{OpID: op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) count(id int, key string, v float64) {
	if t == nil {
		return
	}
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = map[string]float64{}
	}
	t.spans[id].Counts[key] += v
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// Span names. A root "op" span covers the explicit calls that make up one
// operation; "archive.handler" and "http.request" are further roots of the
// same op id that time the same request through the handler on a recorder
// and through the loopback listener, untraced.
const (
	spanOp      = "op"
	spanPrepare = "query.prepare"
	spanPlan    = "qe.plan"
	spanExec    = "qe.exec"
	spanJoin    = "qe.join" // the exec span of a plan whose root is a join
	spanWrite   = "archive.write_"
	spanHandler = "archive.handler"
	spanHTTP    = "http.request"
	// spanJoinInput is a further root of a join op: one of the join's input
	// scans run as a statement of its own.
	spanJoinInput = "qe.join_input"
	spanReadFITS  = "load.read_fits"
	spanChunk     = "load.chunk"
	spanSort      = "store.sort"
	spanFlush     = "store.flush"
	spanOpen      = "store.open"
)

// shareGroup maps a span under an op to the layer group whose share of the
// traced op time the benchmark reports.
func shareGroup(name string) string {
	switch {
	case name == spanPrepare || name == spanPlan:
		return "trace.share.parse_plan"
	case name == spanExec:
		return "trace.share.qe_exec"
	case name == spanJoin:
		return "trace.share.qe_join"
	case strings.HasPrefix(name, spanWrite):
		return "trace.share.archive_writer"
	case strings.HasPrefix(name, "load.") || strings.HasPrefix(name, "store."):
		return "trace.share.store_load"
	}
	return ""
}

// scanCounts sums the analyze counters of every scan under a plan node.
type scanCounts struct {
	rowsIn, containers, zonePruned, blocksSkipped, bytesDecoded, morsels, steals, workers float64
}

func (c *scanCounts) walk(n *qe.OpNode) {
	if n.Op == "scan" {
		c.containers += float64(n.Containers)
		c.zonePruned += float64(n.ZonePruned)
		if a := n.Actual; a != nil {
			c.rowsIn += float64(a.RowsIn)
			c.blocksSkipped += float64(a.BlocksSkipped)
			c.bytesDecoded += float64(a.BytesDecoded)
			c.morsels += float64(a.Morsels)
			c.steals += float64(a.Steals)
			c.workers = max(c.workers, float64(a.Workers))
		}
	}
	for _, ch := range n.Children {
		c.walk(ch)
	}
}

// tracedOp performs one request as explicit calls into each layer, one span
// per call, then once through the handler on a recorder and once over the
// loopback listener for the two reference spans.
func (fx *fixture) tracedOp(tr *tracer, op int, r *request, c *loadClient) error {
	// The writer span serves a finished job's rows, so the job must exist
	// before the op's clock starts.
	jobID, err := fx.jobFor(r.Query)
	if err != nil {
		return err
	}
	root := tr.begin(op, spanOp, -1)
	rows := 0
	if !r.Job {
		s := tr.begin(op, spanPrepare, root)
		prep, err := query.PrepareString(r.Query)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(op, spanPlan, root)
		plan, err := fx.b.arch.Engine().PlanAnalyze(prep, true)
		tr.end(s)
		if err != nil {
			return err
		}
		name := spanExec
		if prep.Join != nil {
			name = spanJoin
		}
		s = tr.begin(op, name, root)
		start := time.Now()
		res, err := fx.b.arch.Engine().ExecutePlan(context.Background(), plan,
			qe.ExecOptions{Limit: fx.maxRows, Timeout: 30 * time.Second, Analyze: true})
		if err != nil {
			return err
		}
		first := time.Duration(0)
		for b := range res.C {
			if first == 0 {
				first = time.Since(start)
			}
			rows += len(b)
			qe.RecycleBatch(b)
		}
		err = res.Err()
		tr.end(s)
		if err != nil {
			return err
		}
		var sc scanCounts
		sc.walk(plan.Describe())
		tr.count(s, "rows_out", float64(rows))
		tr.count(s, "first_batch_ns", float64(first))
		tr.count(s, "rows_in", sc.rowsIn)
		tr.count(s, "containers", sc.containers)
		tr.count(s, "zone_pruned", sc.zonePruned)
		tr.count(s, "blocks_skipped", sc.blocksSkipped)
		tr.count(s, "bytes_decoded", sc.bytesDecoded)
		tr.count(s, "morsels", sc.morsels)
		tr.count(s, "steals", sc.steals)
		tr.count(s, "pool_workers", sc.workers)
	}
	s := tr.begin(op, spanWrite+r.Format, root)
	rec := httptest.NewRecorder()
	fx.srv.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+jobID+"/rows?format="+r.Format, nil))
	tr.end(s)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("job rows: status %d: %s", rec.Code, rec.Body.String())
	}
	st, _ := fx.srv.www.Jobs.Get(jobID)
	tr.count(s, "rows", float64(st.RowCount))
	tr.count(s, "bytes", float64(rec.Body.Len()))
	tr.end(root)

	s = tr.begin(op, spanHandler, -1)
	rec = httptest.NewRecorder()
	fx.srv.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.Path, nil))
	tr.end(s)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: status %d: %s", rec.Code, rec.Body.String())
	}
	s = tr.begin(op, spanHTTP, -1)
	res := c.do(r)
	tr.end(s)
	return res.err
}

// jobFor returns the id of a finished batch job for the statement,
// submitting it on first use.
func (fx *fixture) jobFor(q string) (string, error) {
	if id, ok := fx.jobs[q]; ok {
		return id, nil
	}
	st, err := fx.srv.www.Jobs.Submit(q)
	if err != nil {
		return "", fmt.Errorf("submitting job: %w", err)
	}
	if err := fx.srv.waitJob(st.ID); err != nil {
		return "", err
	}
	fx.jobs[q] = st.ID
	return st.ID, nil
}

// traceFile is what -out receives for a traced run.
type traceFile struct {
	Workload string         `json:"workload"`
	Env      map[string]any `json:"env"`
	Spans    []span         `json:"spans"`
}

func writeTrace(dir, workload string, env map[string]any, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: workload, Env: env, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

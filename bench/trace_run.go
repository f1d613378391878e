package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sdss/internal/qe"
	"sdss/internal/store"
)

// runTraced is the per-layer run. It spends the window in two halves on the
// same request list: an untraced pass with the measured run's client count
// (class latencies, allocation and GC deltas), and a single-client traced
// pass that performs every request as explicit calls into each layer. The
// layer probes and the set-up's stage timings fill in the layers neither
// pass reaches.
func (fx *fixture) runTraced(res *result) error {
	cfg := fx.cfg
	w := cfg.workload
	m := map[string]float64{}
	samples := map[string]int{}
	half := cfg.window * 2 / 5

	sv := fx.sv
	m["skygen.generate_rows_per_s"] = float64(sv.nPhoto+sv.nSpec) / sv.genDur.Seconds()
	m["load.write_fits_mb_per_s"] = float64(sv.fitsBytes) / 1e6 / sv.writeDur.Seconds()

	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	var untraced *window
	var builds []*built
	var stmts []string
	if w.Name == wIngest {
		runtime.ReadMemStats(&ms0)
		untraced, builds = fx.runIngest(half, nil)
		runtime.ReadMemStats(&ms1)
		traced, tb := fx.runIngest(half, tr)
		builds = append(builds, tb...)
		if ref := percentile(untraced.latMS, 0.5); ref > 0 {
			m["trace.overhead_frac"] = percentile(traced.latMS, 0.5)/ref - 1
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Errors = append(res.Errors, traced.errs...)
		stmts = []string{"SELECT COUNT(*) FROM photoobj", "SELECT COUNT(*) FROM tag", "SELECT COUNT(*) FROM specobj"}
		if med := percentile(untraced.latMS, 0.5); med > 0 {
			m["ingest.rows_per_s"] = float64(sv.rows()) / (med / 1e3)
		}
	} else {
		builds = []*built{fx.b}
		stmts = distinctStatements(fx.reqs)
		runtime.ReadMemStats(&ms0)
		untraced = runClosedLoop(fx.hc, fx.srv.url, fx.reqs, len(templates[w.Name]), cfg.clients(), half)
		runtime.ReadMemStats(&ms1)
		if err := fx.tracedPass(tr, half, res); err != nil {
			return err
		}
	}
	res.Attempted += untraced.attempted
	res.Failed += untraced.failed
	res.Errors = append(res.Errors, untraced.errs...)
	if len(builds) == 0 {
		return fmt.Errorf("no completed build to probe")
	}

	// Stage costs of the load path, as medians over the builds seen.
	stage := func(f func(*built) time.Duration) float64 {
		var s []float64
		for _, b := range builds {
			s = append(s, f(b).Seconds())
		}
		return median(s)
	}
	m["load.read_fits_mb_per_s"] = float64(sv.fitsBytes) / 1e6 / stage(func(b *built) time.Duration { return b.readDur })
	m["load.chunk_rows_per_s"] = float64(sv.rows()) / stage(func(b *built) time.Duration { return b.loadDur })
	m["store.sort_s"] = stage(func(b *built) time.Duration { return b.sortDur })
	m["store.flush_s"] = stage(func(b *built) time.Duration { return b.flushDur })
	m["store.open_s"] = stage(func(b *built) time.Duration { return b.openDur })
	samples["store.flush_s"] = len(builds)

	// Untraced pass: latency per request class, allocation and GC.
	ops := max(len(untraced.latMS), 1)
	for i, t := range templates[w.Name] {
		name := "class." + w.Name + "." + t + ".p50_ms"
		m[name] = percentile(untraced.byTmplMS[i], 0.5)
		samples[name] = len(untraced.byTmplMS[i])
	}
	m["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	// Layer probes on the archive the passes ran against.
	arch := builds[len(builds)-1].arch
	for _, probe := range []func() error{
		func() error { return probeParse(stmts, m) },
		func() error { return probeCover(stmts, sv, m) },
		func() error { return probeStore([]*store.Sharded{arch.PhotoStore(), arch.TagStore()}, m) },
		func() error { return probeColblk(arch.TagStore(), m) },
		func() error { return probeHashm(sv, m) },
		func() error { return probeLoadSide(sv, m) },
	} {
		if err := probe(); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}

	spanMetrics(tr, m, samples, len(templates[w.Name]))

	if cfg.outDir != "" {
		if err := writeTrace(cfg.outDir, w.Name, res.Env, tr); err != nil {
			return err
		}
	}
	for _, spec := range perLayer {
		res.set(perLayer, spec.Name, m[spec.Name], samples[spec.Name])
	}
	return nil
}

// countOps is how many leading traced operations the exactly repeating
// counts (containers, morsels, rows examined, …) are taken from: a fixed
// prefix of the list, so the same seed gives the same numbers whatever the
// window allowed beyond it.
func countOps(nTmpl int) int { return 4 * nTmpl }

// tracedPass walks the request list with one client for d, and at least
// through the count prefix.
func (fx *fixture) tracedPass(tr *tracer, d time.Duration, res *result) error {
	c := newLoadClient(fx.hc, fx.srv.url)
	need := min(countOps(len(templates[fx.cfg.workload.Name])), len(fx.reqs))
	start := time.Now()
	for op := 0; op < need || time.Since(start) < d; op++ {
		r := &fx.reqs[op%len(fx.reqs)]
		res.Attempted++
		if err := fx.tracedOp(tr, op, r, c); err != nil {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, "traced: "+err.Error())
			}
			continue
		}
		if err := fx.joinInputs(tr, op, r); err != nil {
			return err
		}
	}
	return nil
}

// joinInputs times a join request's input scans on their own, as extra root
// spans of the op, so the share of a join span that is plain scanning can be
// estimated from outside.
func (fx *fixture) joinInputs(tr *tracer, op int, r *request) error {
	for _, q := range r.Inputs {
		s := tr.begin(op, spanJoinInput, -1)
		rows, err := fx.b.arch.Engine().ExecuteString(context.Background(), q)
		if err != nil {
			return err
		}
		for b := range rows.C {
			qe.RecycleBatch(b)
		}
		err = rows.Err()
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// spanMetrics derives the span-based per-layer metrics.
func spanMetrics(tr *tracer, m map[string]float64, samples map[string]int, nTmpl int) {
	self := tr.selfTimes()
	durs := map[string][]float64{} // span name → durations, µs
	var opTotal, joinTotal, joinInputTotal, scanTotal time.Duration
	share := map[string]time.Duration{}
	var rowsIn, rowsOut, scanRowsIn float64
	var firstBatch []float64
	counts := map[string]float64{}
	countedOps := 0
	writeNS, writeRows := map[string]float64{}, map[string]float64{}
	handler, httpReq := map[int]time.Duration{}, map[int]time.Duration{}
	for i := range tr.spans {
		s := &tr.spans[i]
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		switch {
		case s.Name == spanOp:
			opTotal += s.dur()
		case s.Name == spanHandler:
			handler[s.OpID] = s.dur()
		case s.Name == spanHTTP:
			httpReq[s.OpID] = s.dur()
		case s.Name == spanJoinInput:
			joinInputTotal += s.dur()
		}
		if s.Parent < 0 {
			continue
		}
		if g := shareGroup(s.Name); g != "" {
			share[g] += self[i]
		}
		switch {
		case s.Name == spanExec || s.Name == spanJoin:
			if s.Counts == nil {
				continue // ingest's COUNT(*) span carries no plan counters
			}
			firstBatch = append(firstBatch, s.Counts["first_batch_ns"]/1e3)
			if s.Name == spanExec {
				scanTotal += s.dur()
				scanRowsIn += s.Counts["rows_in"]
			} else {
				joinTotal += s.dur()
			}
			m["qe.pool_workers_peak"] = max(m["qe.pool_workers_peak"], s.Counts["pool_workers"])
			if s.OpID < countOps(nTmpl) {
				countedOps++
				rowsIn += s.Counts["rows_in"]
				rowsOut += s.Counts["rows_out"]
				for _, k := range []string{"containers", "zone_pruned", "blocks_skipped", "bytes_decoded", "morsels", "steals"} {
					counts[k] += s.Counts[k]
				}
			}
		case strings.HasPrefix(s.Name, spanWrite):
			f := strings.TrimPrefix(s.Name, spanWrite)
			writeNS[f] += float64(s.dur())
			writeRows[f] += s.Counts["rows"]
		}
	}
	med := func(name string) float64 { return median(durs[name]) }
	m["query.prepare_us"] = med(spanPrepare)
	m["qe.plan_us"] = med(spanPlan)
	m["qe.exec_us"] = median(append(append([]float64(nil), durs[spanExec]...), durs[spanJoin]...))
	m["qe.first_batch_us"] = median(firstBatch)
	samples["qe.exec_us"] = len(durs[spanExec]) + len(durs[spanJoin])
	if scanRowsIn > 0 {
		m["qe.scan_ns_per_row"] = float64(scanTotal) / scanRowsIn
	}
	m["qe.rows_examined_per_result"] = rowsIn / max(rowsOut, 1)
	if joinTotal > 0 {
		m["qe.join_input_scan_frac"] = float64(joinInputTotal) / float64(joinTotal)
	}
	for k, v := range counts {
		m["qe."+k] = v / float64(max(countedOps, 1))
		samples["qe."+k] = countedOps
	}
	for f, ns := range writeNS {
		if writeRows[f] > 0 {
			m["archive.write_"+f+"_ns_per_row"] = ns / writeRows[f]
		}
	}
	m["archive.handler_us"] = med(spanHandler)
	var over []float64
	for op, h := range handler {
		if r, ok := httpReq[op]; ok {
			over = append(over, float64(r-h)/1e3)
		}
	}
	m["archive.http_overhead_us"] = median(over)
	if opTotal > 0 {
		for g, d := range share {
			m[g] = float64(d) / float64(opTotal)
		}
	}
	// Tracing overhead: the traced op's explicit, instrumented calls against
	// the handler making the same calls untraced, neither over the network.
	// Ingest has no such twin span; runTraced compares its traced cycles with
	// its untraced ones instead.
	if ref := med(spanHandler); ref > 0 {
		m["trace.overhead_frac"] = med(spanOp)/ref - 1
	}
	samples["trace.overhead_frac"] = len(durs[spanOp])
}

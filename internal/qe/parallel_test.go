package qe

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// canonicalTotal sorts a result set into a total deterministic order: by
// ObjID, then by every value. Join pairs share the probe row's ObjID, so
// the plain ObjID sort of canonical() is not total for them.
func canonicalTotal(res []Result) {
	sort.Slice(res, func(i, j int) bool {
		a, b := &res[i], &res[j]
		if a.ObjID != b.ObjID {
			return a.ObjID < b.ObjID
		}
		for k := range a.Values {
			if c := keyCompare(a.Values[k], b.Values[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// TestWorkerShardPropertyGrid is the scheduler conformance property: every
// query in the grid must produce bit-identical results across every
// combination of scan parallelism (Workers ∈ {1, 2, 8}) and scatter width
// (shards ∈ {1, 8}) — tolerance zero, including SUM and AVG: aggregate
// scans fold per container and combine partials in container order, and
// the container set does not depend on how containers are dealt to shards
// or workers.
func TestWorkerShardPropertyGrid(t *testing.T) {
	const n, seed = 6000, 7
	engines := map[int]*Engine{}
	var center struct{ ra, dec float64 }
	for _, shards := range []int{1, 8} {
		e, photo := shardedArchive(t, n, seed, shards)
		engines[shards] = e
		center.ra, center.dec = photo[0].RA, photo[0].Dec
	}

	grid := []struct {
		name    string
		q       string
		ordered bool
	}{
		{"filter", "SELECT objid, r FROM tag WHERE r < 21 AND class = 'GALAXY'", false},
		{"cone", fmt.Sprintf("SELECT objid, ra, dec, r FROM tag WHERE CIRCLE(%v, %v, 45)", center.ra, center.dec), false},
		{"order-all", "SELECT objid, g FROM tag WHERE g < 21 ORDER BY g", true},
		{"order-limit", "SELECT objid, r FROM tag WHERE r < 21.5 ORDER BY r LIMIT 50", true},
		{"count", "SELECT COUNT(*) FROM tag WHERE r < 21", true},
		{"sum", "SELECT SUM(r) FROM tag WHERE r < 21", true},
		{"avg", "SELECT AVG(r) FROM tag WHERE r < 21", true},
		// r is a float32 magnitude: thousands of them sum exactly in
		// float64 in any order. The derived ra does not, so only these
		// two rows see the container-order combine.
		{"sum-ra", "SELECT SUM(ra) FROM tag WHERE r < 21", true},
		{"avg-ra", "SELECT AVG(ra) FROM tag WHERE r < 21", true},
		{"min", "SELECT MIN(r) FROM tag WHERE r < 21", true},
		{"max", "SELECT MAX(r) FROM tag WHERE r < 21", true},
		{"hash-join", "SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 20", false},
		{"neighbor-join", "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 2) WHERE a.objid < b.objid", false},
		{"intersect", "SELECT objid FROM tag WHERE r < 21 INTERSECT SELECT objid FROM tag WHERE g < 21", false},
		{"minus", "SELECT objid FROM tag WHERE r < 21 MINUS SELECT objid FROM tag WHERE g < 20", false},
	}
	for _, tc := range grid {
		t.Run(tc.name, func(t *testing.T) {
			var want []Result
			for _, shards := range []int{1, 8} {
				for _, workers := range []int{1, 2, 8} {
					s := engines[shards]
					e := &Engine{Photo: s.Photo, Tag: s.Tag, Spec: s.Spec, Workers: workers}
					got := mustCollect(t, e, tc.q)
					if !tc.ordered {
						canonicalTotal(got)
					}
					if want == nil {
						want = got // the W=1, 1-shard baseline
						continue
					}
					sameResults(t, fmt.Sprintf("%s W=%d shards=%d", tc.name, workers, shards),
						want, got, 0)
				}
			}
		})
	}
}

// TestExplainAnalyzeReportsMorsels pins the scan's observability: an
// EXPLAIN ANALYZE sharded scan must report how many morsels it was chunked
// into and how many workers ran them — at most min(Workers, morsels) — in
// the OpNode actuals and in the rendered plan text. Steals stays 0: the
// workers claim morsels from one shared counter.
func TestExplainAnalyzeReportsMorsels(t *testing.T) {
	e, _ := shardedArchive(t, 6000, 3, 8)
	e.Workers = 4
	e.morselTarget = 64 // many small morsels so the scan genuinely fans out
	plan, rows := openAnalyzed(t, e, "SELECT objid, r FROM tag WHERE r < 21.5")
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	scan := scanNode(t, plan)
	if scan.Actual.Morsels < 2 {
		t.Errorf("Morsels = %d, want >= 2 (64-record morsels over 6000 records)", scan.Actual.Morsels)
	}
	if bound := min(4, scan.Actual.Morsels); scan.Actual.Workers < 1 || scan.Actual.Workers > bound {
		t.Errorf("Workers = %d, want 1..%d (min(Workers, morsels))", scan.Actual.Workers, bound)
	}
	if scan.Actual.Steals != 0 {
		t.Errorf("Steals = %d, want 0", scan.Actual.Steals)
	}
	text := plan.Text()
	if want := fmt.Sprintf("morsels=%d", scan.Actual.Morsels); !strings.Contains(text, want) {
		t.Errorf("plan text missing %q:\n%s", want, text)
	}
	if want := fmt.Sprintf("workers=%d", scan.Actual.Workers); !strings.Contains(text, want) {
		t.Errorf("plan text missing %q:\n%s", want, text)
	}
}

// TestCloseDuringStealLeaksNoGoroutines closes queries mid-flight — small
// morsels, small batches, 8 workers over 8 shards, so cancellation lands
// while workers are actively claiming morsels — and then requires the
// goroutine count to return to its pre-query baseline: no scan worker,
// gather, or finish goroutine may outlive its query. Each interrupted stream must also mark
// itself interrupted (the cancel is user-initiated, so Err stays nil).
func TestCloseDuringStealLeaksNoGoroutines(t *testing.T) {
	e, _ := shardedArchive(t, 8000, 11, 8)
	e.Workers = 8
	e.morselTarget = 32
	e.batchRows = 8

	// Warm the engine once so lazily created state is excluded from the
	// baseline.
	rows, err := e.ExecuteString(context.Background(), "SELECT objid FROM tag LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	// Let the warm-up query's workers exit before taking the baseline.
	baseline := settledGoroutines()

	for iter := 0; iter < 20; iter++ {
		rows, err := e.ExecuteString(context.Background(), "SELECT objid, ra, dec, r FROM tag")
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for b := range rows.C {
			got += len(b)
			if got >= 8 {
				break
			}
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatalf("iter %d: Err after user close: %v", iter, err)
		}
		if !rows.interrupted.Load() {
			t.Fatalf("iter %d: mid-query close did not mark the stream interrupted", iter)
		}
	}

	waitGoroutines(t, baseline, "goroutines leaked")
}

// TestMorselFastPathSingleContainer pins the one-morsel case: a plan whose
// coverage reduces to one morsel runs on one goroutine, and EXPLAIN
// reports one worker and zero steals.
func TestMorselFastPathSingleContainer(t *testing.T) {
	e, _ := shardedArchive(t, 300, 5, 1) // small survey, single shard
	e.morselTarget = 1 << 20             // every container fits one morsel
	plan, rows := openAnalyzed(t, e, "SELECT objid FROM tag WHERE r < 30")
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no rows")
	}
	scan := scanNode(t, plan)
	if scan.Actual.Morsels != 1 {
		t.Fatalf("Morsels = %d, want 1 (one morsel covers the whole table)", scan.Actual.Morsels)
	}
	if scan.Actual.Steals != 0 {
		t.Errorf("Steals = %d, want 0", scan.Actual.Steals)
	}
	if scan.Actual.Workers != 1 {
		t.Errorf("Workers = %d, want 1 (min(Workers, morsels))", scan.Actual.Workers)
	}
}

// TestStalledConsumerParksOnlyItsQuery is the cross-query starvation
// property: a query whose consumer never reads must park only itself, and
// only its own scan's workers. With morsels and batches small enough that
// the stalled scan outruns its stream's buffer at once, a stream, a fold
// and a top-N started afterwards must each finish; the stalled query may
// hold at most Workers + 2 goroutines above baseline (its scan's workers
// blocked in their sends, plus the stream's plumbing); and closing it must
// return the goroutine count to its baseline.
func TestStalledConsumerParksOnlyItsQuery(t *testing.T) {
	e, _ := coverArchive(t, 20000, 1, 4, 1)
	e.morselTarget = 64
	e.batchRows = 8
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e.Workers = workers
			// Warm the engine once so lazily created state is excluded
			// from the baseline.
			mustCollect(t, e, "SELECT objid FROM tag LIMIT 1")
			baseline := settledGoroutines()

			stalled, err := e.ExecuteString(context.Background(), "SELECT objid, r FROM tag")
			if err != nil {
				t.Fatal(err)
			}
			defer stalled.Close()
			for _, q := range []string{
				"SELECT objid, r FROM tag WHERE r < 20",
				"SELECT COUNT(*) FROM tag WHERE g - r > 0.3",
				"SELECT objid, r FROM tag ORDER BY r LIMIT 10",
			} {
				start := time.Now()
				done := make(chan error, 1)
				go func() {
					rows, err := e.ExecuteString(context.Background(), q)
					if err == nil {
						_, err = rows.Collect()
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					t.Logf("%s: %v beside the stalled query", q, time.Since(start))
				case <-time.After(10 * time.Second):
					t.Fatalf("%s did not finish within 10s beside a stalled query", q)
				}
			}
			waitGoroutines(t, baseline+workers+2, "the stalled query parks more than Workers + 2 goroutines")
			t.Logf("stalled query parks %d goroutines above baseline", runtime.NumGoroutine()-baseline)

			stalled.Close()
			waitGoroutines(t, baseline, "goroutines leaked")
		})
	}
}

// settledGoroutines is the goroutine count once the goroutines of queries
// that already returned have exited: it polls until the count stops
// falling, for at most 5s.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			break
		}
		n = m
	}
	return n
}

// waitGoroutines waits up to 10s for the goroutine count to fall to at
// most limit, and fails with every goroutine's stack if it does not.
func waitGoroutines(t *testing.T, limit int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines now, want at most %d\n%s", what, n, limit, buf[:runtime.Stack(buf, true)])
		}
	}
}

// BenchmarkFirstBatch is the layer guard for the scan workers' yield after
// each hand-off (scanJob.emit): the export workload's statement at
// Workers 2, run by two concurrent consumers that each spend about 1.5 µs
// per row, as a format writer does. first-batch-ns/op is the mean time
// from Execute to the first batch in a consumer's hand.
func BenchmarkFirstBatch(b *testing.B) {
	e, _ := coverArchive(b, 50000, 1, 4, 1)
	e.Workers = 2
	const q = "SELECT objid, ra, dec, u, g, r, i, z FROM tag WHERE r < 21.5"
	const perRow = 1500 * time.Nanosecond
	var firstNs atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				rows, err := e.ExecuteString(context.Background(), q)
				if err != nil {
					b.Error(err)
					return
				}
				first := true
				for bt := range rows.C {
					if first {
						firstNs.Add(int64(time.Since(start)))
						first = false
					}
					for t0 := time.Now(); time.Since(t0) < time.Duration(len(bt))*perRow; {
					}
				}
				if err := rows.Err(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(firstNs.Load())/float64(2*b.N), "first-batch-ns/op")
}

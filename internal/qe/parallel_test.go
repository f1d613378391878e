package qe

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
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
// combination of pool size (Workers ∈ {1, 2, 8}) and scatter width
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

// TestExplainAnalyzeReportsMorsels pins the scheduler's observability: an
// EXPLAIN ANALYZE sharded scan must report how many morsels it was chunked
// into, how many pool workers ran them, and how many were stolen — in the
// OpNode actuals and in the rendered plan text.
func TestExplainAnalyzeReportsMorsels(t *testing.T) {
	e, _ := shardedArchive(t, 6000, 3, 8)
	e.Workers = 4
	e.morselTarget = 64 // many small morsels so the pool genuinely fans out
	plan, rows := openAnalyzed(t, e, "SELECT objid, r FROM tag WHERE r < 21.5")
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	scan := scanNode(t, plan)
	if scan.Actual.Morsels < 2 {
		t.Errorf("Morsels = %d, want >= 2 (64-record morsels over 6000 records)", scan.Actual.Morsels)
	}
	if scan.Actual.Workers < 1 || scan.Actual.Workers > 4 {
		t.Errorf("Workers = %d, want 1..4", scan.Actual.Workers)
	}
	if scan.Actual.Steals < 0 || scan.Actual.Steals > scan.Actual.Morsels {
		t.Errorf("Steals = %d outside [0, %d]", scan.Actual.Steals, scan.Actual.Morsels)
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
// morsels, small batches, an 8-way pool over 8 shards, so cancellation
// lands while workers are actively pulling and stealing units — and then
// requires the goroutine count to return to its pre-query baseline: pool
// workers exit when the queues drain, and no scan, gather, or finish
// goroutine may outlive its query. Each interrupted stream must also mark
// itself interrupted (the cancel is user-initiated, so Err stays nil).
func TestCloseDuringStealLeaksNoGoroutines(t *testing.T) {
	e, _ := shardedArchive(t, 8000, 11, 8)
	e.Workers = 8
	e.morselTarget = 32
	e.batchRows = 8

	// Warm the pool machinery once so lazily created state (the pool
	// struct) is excluded from the baseline.
	rows, err := e.ExecuteString(context.Background(), "SELECT objid FROM tag LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	// Let the warm-up query's pool workers exit before taking the baseline.
	baseline := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < baseline {
			baseline = n
		} else {
			break
		}
	}

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

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMorselFastPathSingleContainer pins the dispatch fast path: a plan
// whose coverage reduces to one morsel must not touch the shared pool —
// the unit runs on a plain goroutine and EXPLAIN reports zero steals with
// one worker.
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
		t.Errorf("Steals = %d on the single-morsel fast path", scan.Actual.Steals)
	}
	if scan.Actual.Workers != 1 {
		t.Errorf("Workers = %d, want 1", scan.Actual.Workers)
	}
}

// TestStalledConsumerParksOnlyItsQuery is the cross-query starvation
// property: a query whose consumer never reads must park only itself. On a
// one-worker pool, with morsels and batches small enough that the stalled
// scan outruns its stream's buffer at once, a stream, a fold and a top-N
// started afterwards must each finish, and closing the stalled query must
// return the goroutine count to its baseline. How many goroutines the
// stalled query parks is logged, not bounded.
func TestStalledConsumerParksOnlyItsQuery(t *testing.T) {
	e, _ := coverArchive(t, 20000, 1, 4, 1)
	e.Workers = 1
	e.morselTarget = 64
	e.batchRows = 8

	// Warm the pool once so lazily created state is excluded from the
	// baseline, then let the warm-up's workers exit.
	mustCollect(t, e, "SELECT objid FROM tag LIMIT 1")
	baseline := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < baseline {
			baseline = n
		} else {
			break
		}
	}

	stalled, err := e.ExecuteString(context.Background(), "SELECT objid, r FROM tag")
	if err != nil {
		t.Fatal(err)
	}
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
			stalled.Close()
			t.Fatalf("%s did not finish within 10s beside a stalled query", q)
		}
	}
	t.Logf("stalled query parks %d goroutines above baseline", runtime.NumGoroutine()-baseline)

	stalled.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

package qe

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestTopNMatchesReference checks the scan workers' bounded top-N row for
// row against the reference on the NaN archive, where a fifth of the r
// keys are NaN and the rest take nine values, so nearly every heap
// decision is a key tie the objid settles. Keys are stored (r) and derived
// (ra, computed from the unit vector), with and without residual
// predicates: "g - r >= 0" rejects exactly the NaN-keyed rows an
// ascending key check admits first, and "ra - r > 150" rejects rows of
// every key. N runs from one row to past the table, at every combination
// of pool size and shard count; small morsels make the pool fan out, so
// several workers hold heaps.
func TestTopNMatchesReference(t *testing.T) {
	queries := []string{
		"SELECT objid, r FROM tag ORDER BY r%s LIMIT %d",
		"SELECT g, objid FROM tag ORDER BY ra%s LIMIT %d",
		"SELECT ra, r FROM tag WHERE g - r >= 0 ORDER BY r%s LIMIT %d",
		"SELECT objid, ra FROM tag WHERE ra - r > 150 ORDER BY ra%s LIMIT %d",
	}
	for _, shards := range []int{1, 4} {
		base, _, _ := nanArchive(t, shards)
		for _, workers := range []int{1, 2, 4} {
			e := &Engine{Photo: base.Photo, Tag: base.Tag, Spec: base.Spec, Workers: workers, morselTarget: 40}
			for _, qf := range queries {
				for _, dir := range []string{"", " DESC"} {
					for _, n := range []int{1, 50, 100, 599, 600, 1_000_000_000} {
						q := fmt.Sprintf(qf, dir, n)
						want := refCollect(t, e, q)
						if len(want) == 0 {
							t.Fatalf("%q: reference matched no rows", q)
						}
						if err := sameResultsExact(mustCollect(t, e, q), want); err != nil {
							t.Errorf("shards=%d W=%d %q: %v", shards, workers, q, err)
						}
					}
				}
			}
		}
	}
}

// TestTopNBoundsSortInput is the mechanism: on the 50k-object archive at
// Workers 2, ORDER BY r LIMIT 100 hands the sort stage at most 2 × 100
// rows — each worker's heap, not the table — and the scan's output is
// exactly the sort's input. The answer still matches the reference.
func TestTopNBoundsSortInput(t *testing.T) {
	e, _ := coverArchive(t, 50000, 1, 4, 1)
	e.Workers = 2
	const q = "SELECT objid, r FROM tag ORDER BY r LIMIT 100"
	plan, rows := openAnalyzed(t, e, q)
	got, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResultsExact(got, refCollect(t, e, q)); err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	sortNode := plan.Describe().Children[0]
	if sortNode.Op != "sort" || sortNode.Actual == nil {
		t.Fatalf("no analyzed sort under the limit:\n%s", plan.Text())
	}
	scan := scanNode(t, plan)
	if scan.Actual.RowsIn < 50000 {
		t.Fatalf("scan examined %d records, want the whole table", scan.Actual.RowsIn)
	}
	if in := sortNode.Actual.RowsIn; in > 2*100 || in < 100 {
		t.Errorf("sort rows_in = %d, want 100..200 (two workers' top 100)\n%s", in, plan.Text())
	}
	if scan.Actual.RowsOut != sortNode.Actual.RowsIn {
		t.Errorf("scan rows_out %d != sort rows_in %d", scan.Actual.RowsOut, sortNode.Actual.RowsIn)
	}
}

// TestTopNHugeLimitAllocatesByTable pins that the heap grows with the rows
// it keeps, not with N: LIMIT 1000000000 over the 600-row NaN archive
// allocates about what the unlimited ORDER BY does — far below one value
// slot per requested row.
func TestTopNHugeLimitAllocatesByTable(t *testing.T) {
	base, n, _ := nanArchive(t, 4)
	e := &Engine{Photo: base.Photo, Tag: base.Tag, Spec: base.Spec, Workers: 2, morselTarget: 40}
	allocated := func(q string) uint64 {
		mustCollect(t, e, q) // warm-up
		var before, after runtime.MemStats
		const runs = 5
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if got := mustCollect(t, e, q); len(got) != n {
				t.Fatalf("%q: %d rows, want %d", q, len(got), n)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	full := allocated("SELECT objid, r FROM tag ORDER BY r")
	huge := allocated("SELECT objid, r FROM tag ORDER BY r LIMIT 1000000000")
	// 1 KiB per table row is generous for the heap's slots and row headers
	// plus the query's fixed cost, and tiny beside 10^9 slots.
	if bound := uint64(n) * 1024; huge > bound {
		t.Errorf("LIMIT 1e9 allocates %d B/query over %d rows, want <= %d (unlimited ORDER BY: %d)", huge, n, bound, full)
	}
}

// TestTopNCloseLeaksNoGoroutines cancels top-N queries while their workers
// still hold heaps — Rows.Close right after the query starts, Close after
// the first sorted batch, and ExecOptions.Timeout deadlines that land
// before, during and after the scan — at Workers 2 over 4 shards, then
// requires the goroutine count to return to its pre-query baseline. A
// timed-out query must report ErrTimeout; a query that reports no error
// must have delivered the whole answer, never a short one.
func TestTopNCloseLeaksNoGoroutines(t *testing.T) {
	e, _ := shardedArchive(t, 8000, 11, 4)
	e.Workers = 2
	e.morselTarget = 32
	e.batchRows = 8
	const q = "SELECT objid, ra, dec, r FROM tag ORDER BY r DESC LIMIT 100"
	want := refCollect(t, e, q)

	// Warm the pool machinery so lazily created state is excluded from the
	// baseline, then let the warm-up's pool workers exit.
	mustCollect(t, e, q)
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
		// Close mid-scan: the workers have emitted nothing yet.
		rows, err := e.ExecuteString(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatalf("iter %d: Err after close mid-scan: %v", iter, err)
		}

		// Close after the first sorted batch.
		rows, err = e.ExecuteString(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		<-rows.C
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatalf("iter %d: Err after close mid-stream: %v", iter, err)
		}

		for _, timeout := range []time.Duration{time.Nanosecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
			rows, err := e.ExecuteStringOpts(context.Background(), q, ExecOptions{Timeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.Collect()
			switch {
			case err == nil:
				if err := sameResultsExact(got, want); err != nil {
					t.Fatalf("iter %d timeout %v: answer reported complete but: %v", iter, timeout, err)
				}
			case errors.Is(err, ErrTimeout):
				if !rows.interrupted.Load() {
					t.Fatalf("iter %d timeout %v: ErrTimeout without an interrupted stream", iter, timeout)
				}
			default:
				t.Fatalf("iter %d timeout %v: Err = %v", iter, timeout, err)
			}
			if timeout == time.Nanosecond && err == nil {
				t.Fatalf("iter %d: a 1ns deadline reported a complete answer", iter)
			}
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

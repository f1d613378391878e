package qe

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/load"
	"sdss/internal/skygen"
)

// shardedArchive loads the same deterministic survey as testArchive into a
// store split across the given number of shard slices.
func shardedArchive(t testing.TB, n int, seed int64, shards int) (*Engine, []catalog.PhotoObj) {
	t.Helper()
	photo, spec, err := skygen.GenerateAll(skygen.Default(seed, n), 2)
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
	tgt.Sort()
	return &Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}, photo
}

// canonical sorts an unordered result set into a deterministic order
// (by ObjID, which is unique per row in non-aggregate queries).
func canonical(res []Result) {
	sort.Slice(res, func(i, j int) bool { return res[i].ObjID < res[j].ObjID })
}

func sameResults(t *testing.T, name string, a, b []Result, floatTol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(a), len(b))
	}
	for i := range a {
		if a[i].ObjID != b[i].ObjID {
			t.Fatalf("%s: row %d objid %d vs %d", name, i, a[i].ObjID, b[i].ObjID)
		}
		if len(a[i].Values) != len(b[i].Values) {
			t.Fatalf("%s: row %d has %d vs %d values", name, i, len(a[i].Values), len(b[i].Values))
		}
		for j, av := range a[i].Values {
			bv := b[i].Values[j]
			// NaN-aware: unmeasured magnitudes must agree as NaN on both
			// sides, not fail the grid with NaN != NaN.
			if av == bv || (math.IsNaN(av) && math.IsNaN(bv)) {
				continue
			}
			den := math.Max(math.Abs(av), math.Abs(bv))
			if floatTol > 0 && den > 0 && math.Abs(av-bv)/den <= floatTol {
				continue
			}
			t.Fatalf("%s: row %d value %d: %v vs %v", name, i, j, av, bv)
		}
	}
}

// TestShardPropertyGrid is the conformance property test: for every query
// in the grid (filter, cone, ORDER BY+LIMIT, each aggregate), an archive
// split into 8 shards must produce results identical to the single-shard
// archive over the same dataset — exactly, after the ordering rules:
// unordered streams are compared as canonically sorted sets, ordered
// streams row for row, and SUM/AVG to float tolerance (their addition
// order legitimately differs across shard counts).
func TestShardPropertyGrid(t *testing.T) {
	const n, seed = 6000, 7
	single, photo := shardedArchive(t, n, seed, 1)
	wide, _ := shardedArchive(t, n, seed, 8)
	if got := wide.Photo.NumShards(); got != 8 {
		t.Fatalf("NumShards = %d, want 8", got)
	}
	center := photo[0]

	grid := []struct {
		name    string
		q       string
		ordered bool
		tol     float64
	}{
		{"filter", "SELECT objid, r FROM tag WHERE r < 21 AND class = 'GALAXY'", false, 0},
		{"filter-photo", "SELECT objid, r, petroRad FROM photoobj WHERE r < 20.5", false, 0},
		{"cone", fmt.Sprintf("SELECT objid, ra, dec, r FROM tag WHERE CIRCLE(%v, %v, 45)", center.RA, center.Dec), false, 0},
		{"order-limit", "SELECT objid, r FROM tag WHERE r < 21.5 ORDER BY r LIMIT 50", true, 0},
		{"order-desc", "SELECT objid, r FROM tag ORDER BY r DESC LIMIT 25", true, 0},
		{"order-all", "SELECT objid, g FROM tag WHERE g < 21 ORDER BY g", true, 0},
		{"count", "SELECT COUNT(*) FROM tag WHERE r < 21", true, 0},
		{"min", "SELECT MIN(r) FROM tag WHERE r < 21", true, 0},
		{"max", "SELECT MAX(r) FROM tag WHERE r < 21", true, 0},
		{"sum", "SELECT SUM(r) FROM tag WHERE r < 21", true, 1e-12},
		{"avg", "SELECT AVG(r) FROM tag WHERE r < 21", true, 1e-12},
		{"union", "SELECT objid FROM tag WHERE r < 19 UNION SELECT objid FROM tag WHERE g < 19", false, 0},
		{"intersect", "SELECT objid FROM tag WHERE r < 21 INTERSECT SELECT objid FROM tag WHERE g < 21", false, 0},
		{"minus", "SELECT objid FROM tag WHERE r < 21 MINUS SELECT objid FROM tag WHERE g < 20", false, 0},
	}
	for _, tc := range grid {
		t.Run(tc.name, func(t *testing.T) {
			a := mustCollect(t, single, tc.q)
			b := mustCollect(t, wide, tc.q)
			if !tc.ordered {
				canonical(a)
				canonical(b)
			}
			sameResults(t, tc.name, a, b, tc.tol)
		})
	}
}

// TestShardFanout checks the scan node's per-shard scatter: every slice of
// a whole-sky table holds containers the scan reads, and the per-shard
// counts sum to the containers left after zone pruning, out of the store's
// container total.
func TestShardFanout(t *testing.T) {
	wide, _ := shardedArchive(t, 4000, 3, 4)
	scan := mustPlan(t, wide, "SELECT objid FROM tag WHERE r < 21").Describe()
	if len(scan.ContainersPerShard) != 4 {
		t.Fatalf("scan reports %d shards, want 4", len(scan.ContainersPerShard))
	}
	for i, c := range scan.ContainersPerShard {
		if c == 0 {
			t.Errorf("shard %d reads no containers for a whole-sky scan", i)
		}
	}
	if scan.Containers != wide.Tag.NumContainers() {
		t.Fatalf("scan candidates %d != %d containers", scan.Containers, wide.Tag.NumContainers())
	}
	if got := sum(scan.ContainersPerShard); got != scan.Containers-scan.ZonePruned {
		t.Fatalf("per-shard sum %d != containers %d - zone_pruned %d", got, scan.Containers, scan.ZonePruned)
	}
}

// TestSortStageOrder unit-tests the one sort stage: rows leave ordered by
// the hidden key, key ties broken by objid, NaN keys first ascending and
// last under DESC, at most a batch per window, and the hidden key stripped
// from every row.
func TestSortStageOrder(t *testing.T) {
	e := &Engine{batchRows: 2}
	const keyIdx = 1 // 1 projected col, key at index 1
	nan := math.NaN()
	mk := func(objID catalog.ObjID, col, key float64) Result {
		return Result{ObjID: objID, Values: []float64{col, key}}
	}
	for _, tc := range []struct {
		desc bool
		want string
	}{
		// Key 5 ties three ways and NaN twice: objid decides within each,
		// against payloads that descend where objids ascend.
		{false, "5:60 6:40 1:30 2:20 3:10 4:40 9:90"},
		{true, "9:90 4:40 1:30 2:20 3:10 5:60 6:40"},
	} {
		in := make(chan Batch, 2)
		in <- Batch{mk(9, 90, 9), mk(3, 10, 5), mk(6, 40, nan)}
		in <- Batch{mk(2, 20, 5), mk(5, 60, nan), mk(1, 30, 5), mk(4, 40, 8)}
		close(in)
		rows := &Rows{cancel: func() {}}
		var got []string
		for b := range e.runSort(context.Background(), keyIdx, tc.desc, in, rows) {
			if len(b) > 2 {
				t.Fatalf("desc=%v: window of %d rows, batch size is 2", tc.desc, len(b))
			}
			for _, r := range b {
				if len(r.Values) != 1 {
					t.Fatalf("desc=%v: hidden key not stripped: %v", tc.desc, r.Values)
				}
				got = append(got, fmt.Sprintf("%d:%g", r.ObjID, r.Values[0]))
			}
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("desc=%v: sort order\n got: %s\nwant: %s", tc.desc, s, tc.want)
		}
	}
}

// TestSortLessNaNTotalOrder pins the comparator's totality under NaN sort
// keys: NaN orders before every number (after, under DESC), NaN ties break
// by ObjID, and the order is antisymmetric — the invariants that make the
// sort stage's output independent of arrival order.
func TestSortLessNaNTotalOrder(t *testing.T) {
	nan := math.NaN()
	mk := func(objID catalog.ObjID, key float64) Result {
		return Result{ObjID: objID, Values: []float64{key}}
	}
	rs := []Result{mk(1, nan), mk(2, nan), mk(3, math.Inf(-1)), mk(4, 0), mk(5, math.Inf(1))}
	for _, desc := range []bool{false, true} {
		for i := range rs {
			for j := range rs {
				ij := sortLess(&rs[i], &rs[j], 0, desc)
				ji := sortLess(&rs[j], &rs[i], 0, desc)
				if i == j && (ij || ji) {
					t.Fatalf("desc=%v: result %d not equal to itself", desc, i)
				}
				if i != j && ij == ji {
					t.Fatalf("desc=%v: results %d,%d not strictly ordered (less=%v both ways)", desc, i, j, ij)
				}
			}
		}
	}
	// Ascending: NaNs (objid order) first, then -Inf, 0, +Inf.
	sorted := append([]Result(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sortLess(&sorted[i], &sorted[j], 0, false) })
	var ids []catalog.ObjID
	for _, r := range sorted {
		ids = append(ids, r.ObjID)
	}
	if fmt.Sprint(ids) != "[1 2 3 4 5]" {
		t.Fatalf("ascending NaN order = %v, want [1 2 3 4 5]", ids)
	}
}

// TestRowsCloseRaceAcrossShardProducers is the -race proof for the
// cancellation path: many shard scan workers push batches while consumers
// close the stream mid-batch, repeatedly and concurrently. Close must be
// idempotent across goroutines and leak no producers (Err returning means
// the whole tree exited).
func TestRowsCloseRaceAcrossShardProducers(t *testing.T) {
	e, _ := shardedArchive(t, 4000, 11, 8)
	e.batchRows = 8 // many small batches → many contended channel ops
	for iter := 0; iter < 30; iter++ {
		rows, err := e.ExecuteString(context.Background(), "SELECT objid, ra, dec, r FROM tag")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		// One consumer reads a little, then everyone races to Close.
		wg.Add(3)
		go func() {
			defer wg.Done()
			n := 0
			for range rows.C {
				if n++; n >= 2 {
					break
				}
			}
			rows.Close()
		}()
		for i := 0; i < 2; i++ {
			go func() {
				defer wg.Done()
				rows.Close()
			}()
		}
		wg.Wait()
		if err := rows.Err(); err != nil {
			t.Fatalf("iter %d: Err after close: %v", iter, err)
		}
	}
}

// BenchmarkOrderBy times plan + execute + collect of whole-table tag sorts
// — top-N at N = 100 and 1, a descending top-100, a top-100 behind a
// residual predicate (the key check runs before it), and an unlimited
// ORDER BY — on the bench-density archive at one and eight shards.
func BenchmarkOrderBy(b *testing.B) {
	for _, shards := range []int{1, 8} {
		e, _ := coverArchive(b, 50000, 1, 4, shards)
		benchQueries(b, e, fmt.Sprintf("shards=%d/", shards), []struct{ name, q string }{
			{"top100", "SELECT objid, r FROM tag ORDER BY r LIMIT 100"},
			{"all", "SELECT objid, r FROM tag ORDER BY r"},
			{"top1", "SELECT objid, r FROM tag ORDER BY r LIMIT 1"},
			{"top100desc", "SELECT objid, r FROM tag ORDER BY r DESC LIMIT 100"},
			{"residual_top100", "SELECT objid, r FROM tag WHERE g - r > 0.3 ORDER BY r LIMIT 100"},
		})
	}
}

// BenchmarkNeighborJoin times the 0.5′ tag self-join — index build from the
// build stream, probe from the probe stream — on the bench-density archive
// at one and eight shards.
func BenchmarkNeighborJoin(b *testing.B) {
	for _, shards := range []int{1, 8} {
		e, _ := coverArchive(b, 50000, 1, 4, shards)
		benchQueries(b, e, fmt.Sprintf("shards=%d/", shards), []struct{ name, q string }{
			{"self0.5", "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid"},
		})
	}
}

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
	"sdss/internal/query"
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

// TestShardFanout checks the EXPLAIN-side scatter report: every slice of a
// whole-sky table holds candidate containers, and the per-shard counts sum
// to the store's container total.
func TestShardFanout(t *testing.T) {
	wide, _ := shardedArchive(t, 4000, 3, 4)
	prep, err := query.PrepareString("SELECT objid FROM tag WHERE r < 21")
	if err != nil {
		t.Fatal(err)
	}
	fo, err := wide.Fanout(prep)
	if err != nil {
		t.Fatal(err)
	}
	if len(fo) != 1 {
		t.Fatalf("got %d fanout entries, want 1", len(fo))
	}
	if len(fo[0].ContainersPerShard) != 4 {
		t.Fatalf("fanout reports %d shards, want 4", len(fo[0].ContainersPerShard))
	}
	total := 0
	for i, c := range fo[0].ContainersPerShard {
		if c == 0 {
			t.Errorf("shard %d holds no candidate containers for a whole-sky scan", i)
		}
		total += c
	}
	if total != wide.Tag.NumContainers() {
		t.Fatalf("fanout total %d != %d containers", total, wide.Tag.NumContainers())
	}
	if total != fo[0].ContainersTotal {
		t.Fatalf("ContainersTotal %d != sum %d", fo[0].ContainersTotal, total)
	}
}

// TestMergeOrderedStability unit-tests the k-way merge's ordering rules:
// rows merge by (key, objid); exact duplicates come from the lowest shard
// index first.
func TestMergeOrderedStability(t *testing.T) {
	e := &Engine{BatchSize: 2}
	const keyIdx = 1 // 1 projected col, key at index 1
	mk := func(objID catalog.ObjID, col, key float64) Result {
		return Result{ObjID: objID, Values: []float64{col, key}}
	}
	// Shard streams, each already sorted by (key, objid). Key 5.0 ties
	// across all three shards with distinct objids; (key 7, objid 70) is an
	// exact duplicate in shards 1 and 2 whose payload column identifies the
	// shard it came from.
	shards := [][]Result{
		{mk(3, 30, 5), mk(9, 90, 9)},
		{mk(1, 10, 5), mk(70, 1, 7)},
		{mk(2, 20, 5), mk(70, 2, 7), mk(4, 40, 8)},
	}
	ins := make([]<-chan Batch, len(shards))
	for i, rs := range shards {
		ch := make(chan Batch, 1)
		ch <- Batch(rs)
		close(ch)
		ins[i] = ch
	}
	rows := &Rows{cancel: func() {}}
	var got []Result
	for b := range e.runMergeOrdered(context.Background(), keyIdx, false, ins, rows) {
		got = append(got, b...)
	}
	var desc []string
	for _, r := range got {
		if len(r.Values) != 1 {
			t.Fatalf("hidden key not stripped: %v", r.Values)
		}
		desc = append(desc, fmt.Sprintf("%d:%g", r.ObjID, r.Values[0]))
	}
	// Key ties order by objid (1, 2, 3); the duplicate (7, 70) takes the
	// shard-1 copy (payload 1) before the shard-2 copy (payload 2).
	want := "1:10 2:20 3:30 70:1 70:2 4:40 9:90"
	if s := strings.Join(desc, " "); s != want {
		t.Fatalf("merge order\n got: %s\nwant: %s", s, want)
	}
}

// TestSortLessNaNTotalOrder pins the comparator's totality under NaN sort
// keys: NaN orders before every number (after, under DESC), NaN ties break
// by ObjID, and the order is antisymmetric — the invariants the per-shard
// sort and the k-way merge both need to agree on one global order.
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
	e.BatchSize = 8 // many small batches → many contended channel ops
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

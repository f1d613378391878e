// The order- and aggregate-sensitive stages above a gathered stream. A leaf
// scan operator fans out across the morsel pool (scanOp in plan.go) and
// gathers through its own MPSC stream; what consumes that one stream here:
//
//   - runSort implements ORDER BY: it drains the stream and sorts it by the
//     (key, objid, values) total order of sortLess, so the output is
//     deterministic and identical at every shard and worker count. Under
//     ORDER BY … LIMIT N over a scan, the stream is each scan worker's
//     top-N heap under the same order (topN in scan.go), so the sort sees
//     at most workers × N rows and still answers exactly.
//   - runAggregate folds a single (join) stream into the one-row result,
//     row by row through aggPartial.fold. A leaf scan under an aggregate
//     streams no rows at all: each pool worker folds a container's
//     selection vector straight from the decoded columns into that
//     container's partial (scanWorker.foldSel; no Result, no objid decode,
//     and COUNT of an exact predicate adds the selection's length), and
//     the partials combine in container-ID order (scanFold in morsel.go):
//     COUNT/SUM/MIN/MAX compose directly, AVG composes via sum+count.

package qe

import (
	"context"
	"math"
	"sort"

	"sdss/internal/query"
)

// keyCompare is a three-way comparison of sort keys that is total even for
// NaN: NaN orders before every number and equal to itself, so the sort has
// one order no matter in which arrival order NaN rows reach it.
func keyCompare(ka, kb float64) int {
	aNaN, bNaN := math.IsNaN(ka), math.IsNaN(kb)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	default:
		return 0
	}
}

// sortLess orders two results by the hidden sort key at keyIdx, breaking
// key ties (including NaN-vs-NaN) by ObjID, and ObjID ties by the full
// value row. Single-table rows have unique ObjIDs, but join rows inherit
// the left row's ObjID — one probe row matching several build rows with
// tied sort keys would otherwise sort in nondeterministic arrival order.
// Comparing the remaining values keeps the order total and
// shard-independent for those too (rows tying on every value are
// interchangeable).
func sortLess(a, b *Result, keyIdx int, desc bool) bool {
	if c := keyCompare(a.Values[keyIdx], b.Values[keyIdx]); c != 0 {
		if desc {
			return c > 0
		}
		return c < 0
	}
	if a.ObjID != b.ObjID {
		return a.ObjID < b.ObjID
	}
	for i := range a.Values {
		if c := keyCompare(a.Values[i], b.Values[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

// runSort drains one input stream (a sort node "must be complete before
// results can be sent further up the tree"), orders it by sortLess on the
// hidden sort key at keyIdx of each row's values, and re-emits it as
// batch-sized windows over the one sorted slice, stripping the hidden key
// from each row on the way out. Under a LIMIT over a scan, "complete" is
// the scan workers' top-N heaps, not the table.
func (e *Engine) runSort(ctx context.Context, keyIdx int, desc bool, in <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		all, ok := drainCollect(ctx, in, rows)
		if !ok {
			return
		}
		sort.Slice(all, func(i, j int) bool {
			return sortLess(&all[i], &all[j], keyIdx, desc)
		})
		bs := e.batchSize()
		for start := 0; start < len(all); start += bs {
			end := min(start+bs, len(all))
			// The capped window keeps a consumer's appends off its
			// neighbor's rows.
			win := all[start:end:end]
			for i := range win {
				win[i].Values = win[i].Values[:keyIdx]
			}
			if !rows.send(ctx, out, win) {
				return
			}
		}
	}()
	return out
}

// aggPartial is one container's (or one stream's) partial aggregate:
// enough state to compose any of the five aggregate functions (AVG
// recombines as sum/count).
type aggPartial struct {
	count    int64
	sum      float64
	min, max float64
	any      bool // min/max are meaningful
}

// combine folds another partial in.
func (p *aggPartial) combine(q aggPartial) {
	p.count += q.count
	p.sum += q.sum
	// The worker fold never records a NaN min/max, but guard anyway: a NaN
	// would win or lose every comparison below depending on operand order,
	// making the aggregate depend on shard arrival order.
	if q.any && !math.IsNaN(q.min) && !math.IsNaN(q.max) {
		if !p.any || q.min < p.min {
			p.min = q.min
		}
		if !p.any || q.max > p.max {
			p.max = q.max
		}
		p.any = true
	}
}

// fold absorbs one result row. The non-count aggregate operand is the
// hidden last value of the row.
func (p *aggPartial) fold(agg query.AggFunc, r *Result) {
	var v float64
	if agg != query.AggCount {
		v = r.Values[len(r.Values)-1] // hidden agg operand
	}
	p.foldValue(agg, v)
}

// foldValue absorbs one row's aggregate operand v (ignored by COUNT). The
// leaf fold (scanWorker.foldSel) calls it straight from the decoded
// columns, a stream aggregate through fold: the same additions in the same
// order either way.
func (p *aggPartial) foldValue(agg query.AggFunc, v float64) {
	p.count++
	if agg == query.AggCount {
		return
	}
	p.sum += v
	if math.IsNaN(v) {
		// Unmeasured magnitude: every comparison against it is false, so
		// folding it into min/max would leave the result dependent on
		// arrival order. SUM/AVG still absorb it (NaN poisons them
		// uniformly).
		return
	}
	if !p.any || v < p.min {
		p.min = v
	}
	if !p.any || v > p.max {
		p.max = v
	}
	p.any = true
}

// final extracts the aggregate's answer from a (combined) partial.
func (p *aggPartial) final(agg query.AggFunc) float64 {
	switch agg {
	case query.AggCount:
		return float64(p.count)
	case query.AggSum:
		return p.sum
	case query.AggAvg:
		if p.count > 0 {
			return p.sum / float64(p.count)
		}
		return 0
	case query.AggMin:
		return p.min
	case query.AggMax:
		return p.max
	}
	return 0
}

// runAggregate folds one input stream into the single result row — the
// non-leaf aggregate path (a join input). Aggregation is inherently
// blocking: the input must finish before the row exists, and an input cut
// short by the context yields no row.
func (e *Engine) runAggregate(ctx context.Context, agg query.AggFunc, in <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 1)
	go func() {
		defer close(out)
		var p aggPartial
		for b := range in {
			for i := range b {
				p.fold(agg, &b[i])
			}
		}
		if rows.stop(ctx) {
			return
		}
		rows.send(ctx, out, Batch{{Values: []float64{p.final(agg)}}})
	}()
	return out
}

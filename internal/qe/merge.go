// Shard-aware gather stages of the scatter-gather executor. A leaf scan
// operator fans out across the morsel pool (scanOp in plan.go); unordered
// consumers gather through the scan's own MPSC stream, so the only gather
// stages left here are the order- and aggregate-sensitive ones:
//
//   - runSortShard + runMergeOrdered implement distributed ORDER BY: each
//     shard sorts its own results by (key, objid), then an ordered k-way
//     merge produces one globally sorted stream. The (key, objid) total
//     order makes the merged output deterministic and identical to a
//     single-shard sort of the same rows; exact duplicates are taken from
//     the lowest shard index first (merge stability).
//   - runAggregate folds a single (join) stream into the one-row result;
//     leaf scans push the same fold onto the pool per container instead
//     (scanFold in morsel.go) and combine partials in container order:
//     COUNT/SUM/MIN/MAX compose directly, AVG composes via sum+count.

package qe

import (
	"context"
	"math"
	"sort"

	"sdss/internal/query"
)

// keyCompare is a three-way comparison of sort keys that is total even for
// NaN: NaN orders before every number and equal to itself, so per-shard
// sorts and the k-way merge agree on one global order no matter how NaN
// rows are distributed across slices.
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

// runSortShard drains one input stream (a sort node "must be complete
// before results can be sent further up the tree") and re-emits it ordered
// by (sort key, objid), the key living at keyIdx of each row's values, as
// batch-sized windows over the one sorted slice. The hidden sort key stays
// appended to each row for the downstream k-way merge; runMergeOrdered
// strips it.
func (e *Engine) runSortShard(ctx context.Context, keyIdx int, desc bool, in <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		var all []Result
		for b := range in {
			all = append(all, b...)
		}
		sort.Slice(all, func(i, j int) bool {
			return sortLess(&all[i], &all[j], keyIdx, desc)
		})
		bs := e.batchSize()
		for start := 0; start < len(all); start += bs {
			end := min(start+bs, len(all))
			// The capped window keeps a consumer's appends off its
			// neighbor's rows.
			select {
			case out <- all[start:end:end]:
			case <-ctx.Done():
				rows.interrupted.Store(true)
				return
			}
		}
	}()
	return out
}

// mergeCursor is one shard's position in the k-way merge.
type mergeCursor struct {
	shard int
	ch    <-chan Batch
	batch Batch
	pos   int
}

// head returns the cursor's current result.
func (c *mergeCursor) head() *Result { return &c.batch[c.pos] }

// advance moves past the current result, pulling the next batch when the
// current one is exhausted. It reports false when the stream is done.
func (c *mergeCursor) advance() bool {
	c.pos++
	for c.pos >= len(c.batch) {
		b, ok := <-c.ch
		if !ok {
			return false
		}
		c.batch, c.pos = b, 0
	}
	return true
}

// runMergeOrdered k-way merges per-shard sorted streams into one globally
// sorted stream, strips the hidden sort key at keyIdx, and re-batches. Ties
// on (key, objid) — exact duplicates — are emitted lowest shard first,
// keeping the merge stable and deterministic.
func (e *Engine) runMergeOrdered(ctx context.Context, keyIdx int, desc bool, ins []<-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		// Prime one cursor per shard stream; empty shards drop out here.
		var cursors []*mergeCursor
		for i, in := range ins {
			c := &mergeCursor{shard: i, ch: in, pos: -1}
			if c.advance() {
				cursors = append(cursors, c)
			}
		}
		batch := make(Batch, 0, e.batchSize())
		emit := func() bool {
			if len(batch) == 0 {
				return true
			}
			select {
			case out <- batch:
				batch = make(Batch, 0, e.batchSize())
				return true
			case <-ctx.Done():
				rows.interrupted.Store(true)
				return false
			}
		}
		drain := func() {
			for _, c := range cursors {
				for range c.ch {
				}
			}
		}
		for len(cursors) > 0 {
			if ctx.Err() != nil {
				rows.interrupted.Store(true)
				drain()
				return
			}
			// Pick the smallest head; linear scan — shard counts are small
			// and cursors are slice-ordered, so equal heads resolve to the
			// lowest shard index.
			best := 0
			for i := 1; i < len(cursors); i++ {
				if sortLess(cursors[i].head(), cursors[best].head(), keyIdx, desc) {
					best = i
				}
			}
			r := *cursors[best].head()
			r.Values = r.Values[:keyIdx] // strip the hidden sort key
			batch = append(batch, r)
			if len(batch) >= e.batchSize() {
				if !emit() {
					drain()
					return
				}
			}
			if !cursors[best].advance() {
				cursors = append(cursors[:best], cursors[best+1:]...)
			}
		}
		emit()
	}()
	return out
}

// aggPartial is one shard's partial aggregate: enough state to compose any
// of the five aggregate functions (AVG recombines as sum/count).
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
	p.count++
	if agg == query.AggCount {
		return
	}
	v := r.Values[len(r.Values)-1] // hidden agg operand
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
// blocking: the input must finish before the row exists.
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
		select {
		case out <- Batch{{Values: []float64{p.final(agg)}}}:
		case <-ctx.Done():
			rows.interrupted.Store(true)
		}
	}()
	return out
}

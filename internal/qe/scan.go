package qe

import (
	"context"

	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/htm"
	"sdss/internal/query"
	"sdss/internal/store"
)

// scanWorker is one scan goroutine's working state: the selective row
// reader, the column reader with its selection scratch, and the current
// output batch carved from the pool.
type scanWorker struct {
	cs       *query.CompiledSelect
	sp       *scanPlan
	st       *store.Store
	rangeSet *htm.RangeSet
	stats    *opStats

	rr     *query.RowReader
	getter query.Getter // rr.Get, bound once for the compiled predicate

	// Kernel-path scratch, reused across containers: the column reader's
	// decode buffers, the selection vector, and the per-output key slices.
	reader  *colblk.Reader
	sel     []int32
	outKeys [][]uint64

	bs      int
	flushAt int // ramps 32→bs so the first results ship ASAP
	batch   Batch
	vals    []float64
	emit    func(Batch) bool
	err     error
}

// initialFlushAt is the first-batch size of the emit ramp: the first batch
// ships as soon as a handful of results exist (time-to-first-row is the
// whole point of the ASAP push), then the threshold doubles up to the full
// batch size so the steady state keeps its amortization.
const initialFlushAt = 32

// flush delivers the current batch (transferring ownership) and replaces
// the buffer and its carved value array.
func (w *scanWorker) flush() bool {
	if len(w.batch) == 0 {
		return true
	}
	if !w.emit(w.batch) {
		return false
	}
	if w.flushAt < w.bs {
		w.flushAt *= 2
		if w.flushAt > w.bs {
			w.flushAt = w.bs
		}
	}
	w.batch = getBatch(w.bs)
	if w.sp.width > 0 {
		w.vals = make([]float64, 0, w.bs*w.sp.width)
	}
	return true
}

// scanContainer processes one container, taking the kernel path when a
// fresh column slab exists and falling back to the row loop otherwise
// (legacy archives without COLBLK sidecars run entirely on the fallback).
// It returns the number of records examined and whether the worker should
// continue; on false, w.err carries the failure (context.Canceled for an
// interrupted emit).
func (w *scanWorker) scanContainer(cid htm.ID) (int, bool) {
	if w.sp.kernel != nil {
		if data, count, slab := w.st.ColumnData(cid); slab != nil {
			return w.scanKernel(data, count, slab)
		}
	}
	return w.scanRows(cid)
}

// scanRows is the row loop: point the reader at every record, run the
// compiled predicate, project through the getter.
func (w *scanWorker) scanRows(cid htm.ID) (int, bool) {
	examined := 0
	err := w.st.ForEachInContainer(cid, func(rec []byte) error {
		examined++
		// Cheap prefilter on the embedded key before paying for attribute
		// reads: skip records whose fine trixel falls outside the coverage.
		if w.rangeSet != nil && !w.rangeSet.Contains(w.st.KeyOf(rec)) {
			return nil
		}
		if err := w.rr.Reset(rec); err != nil {
			return err
		}
		if w.cs.Pred != nil && !w.cs.Pred(w.getter) {
			return nil
		}
		res := Result{ObjID: w.rr.ObjID(), Key: w.st.KeyOf(rec)}
		if w.sp.width > 0 {
			start := len(w.vals)
			for _, col := range w.cs.Cols {
				w.vals = append(w.vals, w.getter(col))
			}
			for _, col := range w.sp.hidden {
				w.vals = append(w.vals, w.getter(col))
			}
			res.Values = w.vals[start:len(w.vals):len(w.vals)]
		}
		w.batch = append(w.batch, res)
		if len(w.batch) >= w.flushAt && !w.flush() {
			return context.Canceled
		}
		return nil
	})
	if err != nil {
		w.err = err
		return examined, false
	}
	return examined, true
}

// scanKernel runs the vectorized path over one container's column slab:
// block-level probes first (a constant or dictionary block whose keys
// cannot match dismisses the container without unpacking a code), then the
// branch-free range filters build a selection vector over decoded key
// columns, and only survivors materialize — from keys for stored
// attributes, through the row reader for derived ones and any residual
// predicate.
func (w *scanWorker) scanKernel(data []byte, count int, slab *colblk.Slab) (int, bool) {
	kp := w.sp.kernel
	if count == 0 {
		return 0, true
	}
	if kp.never {
		if w.stats != nil {
			w.stats.blocksSkipped.Add(1)
		}
		return 0, true
	}
	for i := range kp.preds {
		if !kp.preds[i].probe(&slab.Blocks[kp.preds[i].col]) {
			if w.stats != nil {
				w.stats.blocksSkipped.Add(1)
			}
			return 0, true
		}
	}
	w.reader.Reset(slab)
	if cap(w.sel) < count {
		w.sel = make([]int32, count)
	}
	sel := w.sel[:count]
	n := -1
	for i := range kp.preds {
		p := &kp.preds[i]
		n = p.filter(w.reader.Keys(p.col), sel, n)
		if n == 0 {
			return count, true
		}
	}
	htmKeys := w.reader.Keys(kp.htmCol)
	if n < 0 {
		// No range predicates (an exact unfiltered scan): select all.
		for i := range sel {
			sel[i] = int32(i)
		}
		n = count
	}
	if w.rangeSet != nil {
		m := 0
		for _, si := range sel[:n] {
			if w.rangeSet.Contains(htm.ID(htmKeys[si])) {
				sel[m] = si
				m++
			}
		}
		if n = m; n == 0 {
			return count, true
		}
	}
	objKeys := w.reader.Keys(kp.objCol)
	outKeys := w.outKeys[:0]
	for _, oc := range kp.outs {
		if oc.stored {
			outKeys = append(outKeys, w.reader.Keys(int(oc.attr)))
		} else {
			outKeys = append(outKeys, nil)
		}
	}
	w.outKeys = outKeys
	recSize := w.st.Options().RecordSize
	for _, si := range sel[:n] {
		i := int(si)
		if kp.needRow {
			if err := w.rr.Reset(data[i*recSize : (i+1)*recSize]); err != nil {
				w.err = err
				return count, false
			}
			if !kp.exact && w.cs.Pred != nil && !w.cs.Pred(w.getter) {
				continue
			}
		}
		res := Result{ObjID: catalog.ObjID(objKeys[i]), Key: htm.ID(htmKeys[i])}
		if w.sp.width > 0 {
			start := len(w.vals)
			for oi, oc := range kp.outs {
				if oc.stored {
					w.vals = append(w.vals, oc.kind.Value(outKeys[oi][i]))
				} else {
					w.vals = append(w.vals, w.getter(oc.attr))
				}
			}
			res.Values = w.vals[start:len(w.vals):len(w.vals)]
		}
		w.batch = append(w.batch, res)
		if len(w.batch) >= w.flushAt && !w.flush() {
			w.err = context.Canceled
			return count, false
		}
	}
	return count, true
}

// newScanWorker builds one pooled scan worker for a leaf scan job: the row
// reader, the kernel reader when the plan compiled one, and the first
// batch buffer. The batch buffer comes from the pool; Values of all its
// results are carved out of one backing array sized for a full batch, so
// the per-record path allocates nothing. Every successful emit transfers
// ownership and immediately replaces the buffer, so whatever the worker
// still holds on any exit path (cancellation, scan error, the empty
// post-flush buffer) is the job's to recycle at finish. The worker's shard
// store (w.st) and emit are bound per morsel by the scheduler.
func newScanWorker(e *Engine, o *scanOp) (*scanWorker, error) {
	rr, err := query.NewRowReader(o.cs.Table)
	if err != nil {
		return nil, err
	}
	bs := e.batchSize()
	w := &scanWorker{
		cs: o.cs, sp: o.plan, rangeSet: o.rangeSet, stats: o.stats,
		rr: rr, getter: rr.Get,
		bs: bs, flushAt: min(initialFlushAt, bs), batch: getBatch(bs),
	}
	if o.plan.kernel != nil {
		w.reader = colblk.NewReader()
	}
	if o.plan.width > 0 {
		w.vals = make([]float64, 0, bs*o.plan.width)
	}
	return w, nil
}

// zoneAdmit returns the compiled zone-map filter for a select, or nil when
// zone pruning cannot apply (no bounds, or disabled via NoZone).
func (e *Engine) zoneAdmit(cs *query.CompiledSelect) *query.ZoneFilter {
	if e.NoZone {
		return nil
	}
	return cs.Bounds.CompileZone()
}

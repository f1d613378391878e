package qe

import (
	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/htm"
	"sdss/internal/query"
)

// scanWorker is one scan goroutine's working state: the column reader
// with its selection scratch and per-record getter, and the current output
// batch with the value array its rows are carved from.
type scanWorker struct {
	cs       *query.CompiledSelect
	sp       *scanPlan
	rangeSet *htm.RangeSet
	stats    *opStats

	// Column scratch, reused across containers: the column reader's
	// decode buffers, the getter over its current record, the selection
	// vector, and the per-output key slices.
	reader  *colblk.Reader
	cols    *query.ColumnGetter
	getter  query.Getter // cols.Get, bound once for the compiled predicate
	sel     []int32
	outKeys [][]uint64

	bs      int
	flushAt int // ramps 32→bs so the first results ship ASAP
	batch   Batch
	vals    []float64
	emit    func(Batch) bool
	// reuse marks an emit that consumes the batch before returning (the
	// aggregate fold): nothing else ever sees the batch, so flush refills
	// the same batch and value array instead of allocating new ones.
	reuse bool
}

// initialFlushAt is the first-batch size of the emit ramp: the first batch
// ships as soon as a handful of results exist (time-to-first-row is the
// whole point of the ASAP push), then the threshold doubles up to the full
// batch size so the steady state keeps its amortization.
const initialFlushAt = 32

// flush delivers the current batch and starts the next one.
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
	if w.reuse {
		w.batch, w.vals = w.batch[:0], w.vals[:0]
	} else {
		w.fresh()
	}
	return true
}

// fresh starts a new output batch and value array; the previous ones went
// downstream with the emitted batch.
func (w *scanWorker) fresh() {
	w.batch = make(Batch, 0, w.bs)
	if w.sp.width > 0 {
		w.vals = make([]float64, 0, w.bs*w.sp.width)
	}
}

// scanKernel is the one per-container scan, run over the container's
// column slab (store.ColumnData's snapshot; the scan never reads the raw
// records): block-level probes first (a constant or dictionary block whose
// keys cannot match dismisses the container without unpacking a code),
// then the branch-free range filters and the coverage test on the decoded
// HTM column build a selection vector, and only survivors materialize —
// from keys for stored attributes, through the column getter for derived
// ones and any residual predicate. It returns the number of records
// examined and whether the worker should continue: false means an emit
// was refused because the stream was cut off.
func (w *scanWorker) scanKernel(count int, slab *colblk.Slab) (int, bool) {
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
		// No range predicates (no WHERE, or none with a usable key range):
		// select all.
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
	for _, si := range sel[:n] {
		i := int(si)
		w.cols.Seek(i)
		if !kp.exact && w.cs.Pred != nil && !w.cs.Pred(w.getter) {
			continue
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
			return count, false
		}
	}
	return count, true
}

// newScanWorker builds one scan worker for a leaf scan job: the column
// reader, its getter, and the first batch. Values of all a batch's results
// are carved out of one backing array sized for a full batch, so the
// per-record path allocates nothing. The worker's emit is bound per morsel
// by the scheduler; reuse is set by a job whose emit is the aggregate fold.
func newScanWorker(e *Engine, o *scanOp, reuse bool) *scanWorker {
	bs := e.batchSize()
	reader := colblk.NewReader()
	cols := query.NewColumnGetter(o.cs.Table, reader)
	w := &scanWorker{
		cs: o.cs, sp: o.plan, rangeSet: o.rangeSet, stats: o.stats,
		reader: reader, cols: cols, getter: cols.Get,
		bs: bs, flushAt: min(initialFlushAt, bs), reuse: reuse,
	}
	w.fresh()
	return w
}

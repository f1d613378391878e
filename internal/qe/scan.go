package qe

import (
	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/htm"
	"sdss/internal/query"
)

// scanWorker is one scan goroutine's working state: the column reader
// with its selection scratch and per-record getter, and either the current
// output batch with the value array its rows are carved from or, for an
// aggregate scan, the partial its survivors fold into.
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
	// fold, set by an aggregate scan job before each container, is that
	// container's partial: survivors fold into it straight from the
	// decoded columns, and the worker builds no batch.
	fold *aggPartial
	// top is the bounded top-N of an ORDER BY … LIMIT scan: survivors go
	// into it instead of the batch, and the job emits it when it finishes.
	top *topN
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
	w.fresh()
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
// ones and any residual predicate. A fold worker materializes nothing: it
// hands the selection to foldSel. A top-N worker whose heap is full reads
// a survivor's sort key first and drops it, unchecked and unmaterialized,
// when the key is strictly worse than the heap's worst. It returns the
// number of records examined and whether the worker should continue:
// false means an emit was refused because the stream was cut off.
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
	if n < 0 {
		// No range predicates (no WHERE, or none with a usable key range):
		// select all.
		for i := range sel {
			sel[i] = int32(i)
		}
		n = count
	}
	if w.rangeSet != nil {
		htmKeys := w.reader.Keys(kp.htmCol)
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
	if w.fold != nil {
		w.foldSel(sel[:n])
		return count, true
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
	top := w.top
	for _, si := range sel[:n] {
		i := int(si)
		w.cols.Seek(i)
		// Only a strictly worse key is decided here: a tie with the worst
		// kept row goes on to the full (key, objid, values) comparison.
		if top != nil && top.full() && top.worse(w.sortKey(i)) {
			continue
		}
		if !kp.exact && w.cs.Pred != nil && !w.cs.Pred(w.getter) {
			continue
		}
		res := Result{ObjID: catalog.ObjID(objKeys[i])}
		if top != nil {
			res.Values = w.appendValues(top.slot(), i)
			top.offer(res)
			continue
		}
		if w.sp.width > 0 {
			start := len(w.vals)
			w.vals = w.appendValues(w.vals, i)
			res.Values = w.vals[start:len(w.vals):len(w.vals)]
		}
		w.batch = append(w.batch, res)
		if len(w.batch) >= w.flushAt && !w.flush() {
			return count, false
		}
	}
	return count, true
}

// foldSel folds the selected records into the worker's partial in
// selection order — the additions, and their order, of folding the rows
// the stream would emit, without building one. COUNT of an exact (or
// absent) predicate adds the selection's length and decodes nothing more.
// Otherwise a residual predicate re-checks each record through the column
// getter, and the operand is read from its decoded key column, or through
// the getter when it is derived. No objid is decoded.
func (w *scanWorker) foldSel(sel []int32) {
	p, agg := w.fold, w.cs.Agg
	residual := !w.sp.kernel.exact && w.cs.Pred != nil
	if agg == query.AggCount && !residual {
		p.count += int64(len(sel))
		return
	}
	var oc outCol
	var keys []uint64
	if agg != query.AggCount {
		// The operand is the last hidden output (newScanPlan).
		oc = w.sp.kernel.outs[len(w.sp.kernel.outs)-1]
		if oc.stored {
			keys = w.reader.Keys(int(oc.attr))
		}
	}
	if !residual && oc.stored {
		for _, si := range sel {
			p.foldValue(agg, oc.kind.Value(keys[si]))
		}
		return
	}
	for _, si := range sel {
		i := int(si)
		w.cols.Seek(i)
		if residual && !w.cs.Pred(w.getter) {
			continue
		}
		switch {
		case agg == query.AggCount:
			p.count++
		case oc.stored:
			p.foldValue(agg, oc.kind.Value(keys[i]))
		default:
			p.foldValue(agg, w.getter(oc.attr))
		}
	}
}

// appendValues appends survivor i's output values — the projection, then
// the hidden columns — to dst. The column getter must be at record i.
func (w *scanWorker) appendValues(dst []float64, i int) []float64 {
	for oi, oc := range w.sp.kernel.outs {
		if oc.stored {
			dst = append(dst, oc.kind.Value(w.outKeys[oi][i]))
		} else {
			dst = append(dst, w.getter(oc.attr))
		}
	}
	return dst
}

// sortKey reads survivor i's ORDER BY key without materializing the row:
// from the decoded key column for a stored attribute, through the column
// getter (at record i) for a derived one — the value appendValues would
// put in the hidden key slot.
func (w *scanWorker) sortKey(i int) float64 {
	oc := &w.sp.kernel.outs[w.top.keyIdx]
	if oc.stored {
		return oc.kind.Value(w.outKeys[w.top.keyIdx][i])
	}
	return w.getter(oc.attr)
}

// newScanWorker builds one scan worker for a leaf scan job: the column
// reader, its getter, and the first batch — or, for a top-N scan, its
// empty heap instead, and for an aggregate fold nothing at all: the job
// points fold at each container's partial. Values of all a batch's results
// are carved out of one backing array sized for a full batch, so the
// per-record path allocates nothing. The scan job binds the worker's emit.
func newScanWorker(e *Engine, o *scanOp, fold bool) *scanWorker {
	bs := e.batchSize()
	reader := colblk.NewReader()
	cols := query.NewColumnGetter(o.cs.Table, reader)
	w := &scanWorker{
		cs: o.cs, sp: o.plan, rangeSet: o.rangeSet, stats: o.stats,
		reader: reader, cols: cols, getter: cols.Get,
		bs: bs, flushAt: min(initialFlushAt, bs),
	}
	if fold {
		return w
	}
	if o.topN > 0 {
		w.top = &topN{n: o.topN, keyIdx: len(o.cs.Cols), desc: o.cs.Desc, width: o.plan.width, chunk: bs}
		return w
	}
	w.fresh()
	return w
}

// topN is one scan worker's bounded top-N: the best n rows it has seen
// under sortLess. While it fills, rows are only appended; at n rows it
// heapifies into a max-heap whose root is the worst kept row, and from
// then on a candidate either replaces the root or is dropped. sortLess is
// a total order, so the union of every worker's heap holds the global best
// n whatever rows each worker saw: the sort above gets at most workers × n
// rows and answers exactly as if it had sorted the table.
//
// Every kept row owns a fixed slot of width values. A full heap
// materializes candidates into a spare slot and swaps it with the root's
// on replacement, so replacing allocates nothing; a filling heap carves
// fresh slots from chunks of at most chunk rows, never more than n in all
// (the parser accepts LIMIT 2000000000).
type topN struct {
	n, keyIdx int
	desc      bool
	width     int
	chunk     int
	rows      []Result
	free      []float64 // unused tail of the current slot chunk
	spare     []float64 // a full heap's candidate slot
}

func (t *topN) full() bool { return len(t.rows) >= t.n }

// worse reports whether a sort key is strictly worse than the worst kept
// row's: such a row cannot enter the heap, whatever its objid and values.
func (t *topN) worse(key float64) bool {
	c := keyCompare(key, t.rows[0].Values[t.keyIdx])
	if t.desc {
		return c < 0
	}
	return c > 0
}

// slot returns the empty value slot the next candidate materializes into.
func (t *topN) slot() []float64 {
	if t.full() {
		if t.spare == nil {
			t.spare = make([]float64, 0, t.width)
		}
		return t.spare[:0]
	}
	if len(t.free) < t.width {
		rows := min(t.n-len(t.rows), t.chunk)
		t.free = make([]float64, rows*t.width)
	}
	s := t.free[:0:t.width]
	t.free = t.free[t.width:]
	return s
}

// offer admits a candidate whose values fill the slot slot() returned.
func (t *topN) offer(r Result) {
	if !t.full() {
		t.rows = append(t.rows, r)
		if t.full() {
			for i := len(t.rows)/2 - 1; i >= 0; i-- {
				t.down(i)
			}
		}
		return
	}
	root := &t.rows[0]
	if !sortLess(&r, root, t.keyIdx, t.desc) {
		return
	}
	t.spare = root.Values
	*root = r
	t.down(0)
}

// down restores the max-heap below row i.
func (t *topN) down(i int) {
	rows := t.rows
	for {
		m := i
		if l := 2*i + 1; l < len(rows) && sortLess(&rows[m], &rows[l], t.keyIdx, t.desc) {
			m = l
		}
		if r := 2*i + 2; r < len(rows) && sortLess(&rows[m], &rows[r], t.keyIdx, t.desc) {
			m = r
		}
		if m == i {
			return
		}
		rows[i], rows[m] = rows[m], rows[i]
		i = m
	}
}

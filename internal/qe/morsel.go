// Morsel-driven scan execution: each leaf scan runs its container-run
// morsels on goroutines of its own.
//
// A scan job starts min(Workers, morsels) plain goroutines (Workers
// defaults to GOMAXPROCS). Each owns one scanWorker (column reader, getter,
// current batch) and takes the next morsel index from the job's atomic
// counter until none remain, so a skewed container distribution leaves no
// goroutine idle while another morsel waits. The last goroutine to finish
// runs the job's finish. Workers bounds each scan's parallelism, not the
// engine's: concurrent queries each start their own goroutines, and
// GOMAXPROCS bounds the CPU they share.
//
// A consumer that stops reading parks only its own scan: at most Workers
// goroutines blocked in their send, which return once the query is closed
// or its context fires. No other query waits on them.
package qe

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sdss/internal/htm"
)

// defaultMorselRows is the target record count per morsel: big enough that
// per-morsel claim overhead vanishes against scan work, small enough that
// a scan's goroutines stay balanced over a skewed container distribution.
const defaultMorselRows = 4096

func (e *Engine) morselRows() int {
	if e.morselTarget > 0 {
		return e.morselTarget
	}
	return defaultMorselRows
}

// runParallel runs fn(0..n-1) on at most Workers goroutines, the caller's
// among them, each taking the next index from a shared counter, and waits
// for all of them: the fan-out of the partitioned hash-join build and the
// zones build. Once ctx is done no further index starts.
func (e *Engine) runParallel(ctx context.Context, n int, fn func(int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(e.workers(), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// scanMode selects how a scan job delivers its results.
type scanMode int

const (
	// scanStream gathers every morsel's batches into one bounded MPSC
	// channel — the ASAP path every row consumer reads, the sort stage
	// included. A top-N scan (scanOp.topN) rides it too: its workers emit
	// nothing while the job runs, and finish sends each worker's heap
	// where it would flush a batch remainder.
	scanStream scanMode = iota
	// scanFold folds each container's survivors into its own aggregate
	// partial, straight from the decoded columns, and combines the
	// partials in container order — the aggregate pushdown.
	scanFold
)

// scanJob is one leaf scan's execution state: the morsels come from the
// plan, each of the job's goroutines owns one scanWorker, and the mode
// decides how batches leave.
type scanJob struct {
	e    *Engine
	op   *scanOp
	ctx  context.Context
	rows *Rows
	mode scanMode

	out chan Batch // the gathered stream, or the fold's one-row result

	// folds holds a fold job's partials, one per position in the scan's
	// container list: each morsel writes only its own slots, so no lock
	// is taken and nothing grows.
	folds []aggPartial

	// workers holds each goroutine's scanWorker, written by that goroutine
	// only; running counts the goroutines still scanning, and the one that
	// takes it to zero runs finish.
	workers []*scanWorker
	running atomic.Int32
}

func (o *scanOp) newJob(ctx context.Context, rows *Rows, mode scanMode) *scanJob {
	return &scanJob{e: o.e, op: o, ctx: ctx, rows: rows, mode: mode}
}

// dispatch starts the job's goroutines and returns at once. Zero morsels
// finish immediately.
func (j *scanJob) dispatch() {
	ms := j.op.morsels
	if st := j.op.stats; st != nil {
		st.markStart()
		st.morsels.Add(int64(len(ms)))
	}
	n := min(j.e.workers(), len(ms))
	if n == 0 {
		j.finish()
		return
	}
	// offs[i] is morsel i's position in the scan's container list, where
	// a fold finds its containers' partials.
	offs := make([]int, len(ms))
	for i := 1; i < len(ms); i++ {
		offs[i] = offs[i-1] + len(ms[i-1])
	}
	var next atomic.Int64
	j.workers = make([]*scanWorker, n)
	j.running.Store(int32(n))
	for k := range n {
		go func() {
			w := newScanWorker(j.e, j.op, j.mode == scanFold)
			if j.mode == scanStream {
				w.emit = j.emit
			}
			j.workers[k] = w
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ms) || !j.scan(w, ms[i], offs[i]) {
					break
				}
			}
			if j.running.Add(-1) == 0 {
				j.finish()
			}
		}()
	}
}

// emit is the stream workers' delivery: it sends through Rows.send, so a
// slow consumer parks only this scan's goroutines and a cut query refuses
// the batch. After each hand-off the worker yields: while Workers CPU-bound
// producers hold every P, the receiver the send just made ready would
// otherwise wait for a producer to block, and the first batch would reach
// the client late.
func (j *scanJob) emit(b Batch) bool {
	if !j.rows.send(j.ctx, j.out, b) {
		return false
	}
	runtime.Gosched()
	return true
}

// scan runs one morsel on worker w, container by container, reading each
// container from its owning slice; a fold points w at each container's
// partial, at position off+k of the scan's container list. False means the
// query was cut: its context is done or an emit was refused.
func (j *scanJob) scan(w *scanWorker, cids []htm.ID, off int) bool {
	st := j.op.stats
	for k, cid := range cids {
		if j.rows.stop(j.ctx) {
			return false
		}
		if j.mode == scanFold {
			w.fold = &j.folds[off+k]
		}
		_, count, slab := j.op.st.ColumnData(cid)
		examined, ok := w.scanKernel(count, slab) // a fold never refuses
		if st != nil {
			st.rowsIn.Add(int64(examined))
			if w.fold != nil {
				st.rowsOut.Add(w.fold.count)
			}
		}
		if !ok {
			return false // the refused emit marked the cut
		}
	}
	return true
}

// finish completes the job once every goroutine is done: flush worker
// remainders (stream mode keeps rows batched across morsels) or, for a
// top-N scan, send each worker's heap; fold the worker counters into the
// plan stats; and close or emit the output. A job cut off mid-scan sends
// nothing more — neither a partial heap nor a partial fold is an answer.
func (j *scanJob) finish() {
	st := j.op.stats
	if j.mode == scanStream && !j.rows.stop(j.ctx) {
		for _, w := range j.workers {
			var ok bool
			if w.top != nil {
				ok = len(w.top.rows) == 0 || w.emit(w.top.rows)
			} else {
				ok = w.flush()
			}
			if !ok {
				break
			}
		}
	}
	if st != nil {
		for _, w := range j.workers {
			st.bytesDecoded.Add(w.reader.BytesDecoded())
		}
		st.workers.Store(int64(len(j.workers)))
	}
	if j.mode == scanStream {
		close(j.out)
		return
	}
	j.finishFold()
	if st != nil {
		st.markEnd()
	}
}

// finishFold combines the per-container partials in container-ID order and
// emits the single aggregate row. Combining by ID, not by position, keeps
// SUM/AVG bit-identical across worker AND shard counts: the container set
// is invariant under trixel-mod-N sharding, but the scan's container list
// is sorted per shard slice and concatenated across slices. An empty fold
// set still answers (COUNT of nothing is 0), matching the stream
// aggregate. A done context means some worker may have skipped its
// containers, so the row is not sent.
func (j *scanJob) finishFold() {
	defer close(j.out)
	if j.rows.stop(j.ctx) {
		return
	}
	var total aggPartial
	if cids := j.op.containers; slices.IsSorted(cids) {
		for i := range j.folds {
			total.combine(j.folds[i])
		}
	} else {
		order := make([]int32, len(cids))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(cids[a], cids[b]) })
		for _, i := range order {
			total.combine(j.folds[i])
		}
	}
	j.rows.send(j.ctx, j.out, Batch{{Values: []float64{total.final(j.op.cs.Agg)}}})
}

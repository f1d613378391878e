// The morsel-driven scheduler: one engine-wide worker pool executes every
// leaf scan as container-run morsels pulled from shared per-slot queues with
// work stealing.
//
// The pool is lazily created per Engine and sized to Engine.Workers
// (default GOMAXPROCS). Workers are spawned on demand when jobs are
// dispatched and exit as soon as no queued unit remains, so an idle engine
// holds no goroutines and nothing needs an explicit Close. Each worker
// prefers the queue matching its slot (units are dealt round-robin across
// slots, so a hot region's morsels spread over all queues) and steals from
// the longest queue when its own runs dry — skewed container distributions
// do not park workers behind one hot region.
//
// Blocked sends must not wedge the pool: a worker whose emit would block
// releases its slot first (spawning a replacement if queued work remains),
// performs the blocking send, then reacquires a slot. A query whose
// consumer reads slowly therefore parks its own batches, never the other
// queries sharing the engine.
//
// Deadlock discipline for operators: any node that defers consuming one
// input (hash-join probe, neighbor-join probe, INTERSECT's right child,
// MINUS's left child) must not open that input until it is ready to drain
// it — an opened scan's morsels are queued immediately, and morsels
// blocked on an unconsumed stream would otherwise occupy the very workers
// the consuming side needs.
package qe

import (
	"context"
	"sort"
	"sync"

	"sdss/internal/htm"
	"sdss/internal/query"
)

// defaultMorselRows is the target record count per morsel: big enough that
// per-morsel dispatch overhead vanishes against scan work, small enough
// that stealing can rebalance a skewed scan mid-query.
const defaultMorselRows = 4096

func (e *Engine) morselRows() int {
	if e.morselTarget > 0 {
		return e.morselTarget
	}
	return defaultMorselRows
}

// getPool returns the engine-wide scheduler, created on first dispatch and
// sized to the worker setting in effect then.
func (e *Engine) getPool() *pool {
	e.poolOnce.Do(func() {
		e.pl = newPool(e.workers())
	})
	return e.pl
}

// unit is one queued work item: a scan morsel (a run of candidate
// containers, sized at plan time to ~morselRows records), or a generic
// function for non-scan pool work (the partitioned hash-join build).
type unit struct {
	cids []htm.ID
	run  func()
}

// uqueue is one slot's FIFO deque. Owners pop the front; thieves pop the
// back, so a steal takes the work its owner would reach last.
type uqueue struct {
	items []unit
	head  int
}

func (q *uqueue) size() int { return len(q.items) - q.head }

func (q *uqueue) push(u unit) { q.items = append(q.items, u) }

func (q *uqueue) popFront() unit {
	u := q.items[q.head]
	q.items[q.head] = unit{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return u
}

func (q *uqueue) popBack() unit {
	n := len(q.items) - 1
	u := q.items[n]
	q.items[n] = unit{}
	q.items = q.items[:n]
	return u
}

// poolJob is one dispatched batch of units plus its completion hook.
type poolJob struct {
	queues  []uqueue
	pending int // queued units
	active  int // units currently running
	steals  int64
	run     func(u unit)
	// finish runs (on its own goroutine) once every unit completed, with
	// the job's steal count.
	finish func(steals int64)
}

// pool is the engine-wide morsel scheduler.
type pool struct {
	size int // concurrently-running worker bound

	mu       sync.Mutex
	slotFree *sync.Cond
	running  int // workers holding a slot (blocked emitters release theirs)
	pending  int // queued units across all jobs
	nextWID  int
	jobs     []*poolJob
}

func newPool(size int) *pool {
	if size < 1 {
		size = 1
	}
	p := &pool{size: size}
	p.slotFree = sync.NewCond(&p.mu)
	return p
}

// dispatch queues a job's units (dealt round-robin across slots) and spawns
// workers up to the pool bound. It never blocks on the work itself.
func (p *pool) dispatch(j *poolJob, units []unit) {
	p.mu.Lock()
	j.queues = make([]uqueue, p.size)
	for i, u := range units {
		j.queues[i%p.size].push(u)
	}
	j.pending = len(units)
	p.pending += len(units)
	p.jobs = append(p.jobs, j)
	p.spawnLocked()
	p.mu.Unlock()
}

// spawnLocked starts workers while free slots and queued units both exist.
// Overshoot is harmless: a worker that loses the race for work exits.
func (p *pool) spawnLocked() {
	for n := p.pending; p.running < p.size && n > 0; n-- {
		p.running++
		wid := p.nextWID
		p.nextWID++
		go p.worker(wid % p.size)
	}
}

// worker pulls units until none remain anywhere, then exits.
func (p *pool) worker(slot int) {
	for {
		p.mu.Lock()
		j, u, ok := p.takeLocked(slot)
		if !ok {
			p.running--
			p.slotFree.Signal()
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		j.run(u)
		p.mu.Lock()
		j.active--
		done := j.pending == 0 && j.active == 0
		if done {
			p.removeLocked(j)
		}
		steals := j.steals
		p.mu.Unlock()
		if done {
			// On its own goroutine: a finish hook flushes worker remainders
			// (blocking sends) and must not do so while holding a pool slot.
			go j.finish(steals)
		}
	}
}

// takeLocked picks the next unit for a worker: the front of its own slot's
// queue (oldest job first), else a steal from the back of the longest queue
// anywhere.
func (p *pool) takeLocked(slot int) (*poolJob, unit, bool) {
	for _, j := range p.jobs {
		if j.queues[slot].size() > 0 {
			u := j.queues[slot].popFront()
			j.pending--
			p.pending--
			j.active++
			return j, u, true
		}
	}
	var bj *poolJob
	bq, bn := -1, 0
	for _, j := range p.jobs {
		for qi := range j.queues {
			if n := j.queues[qi].size(); n > bn {
				bj, bq, bn = j, qi, n
			}
		}
	}
	if bj == nil {
		return nil, unit{}, false
	}
	u := bj.queues[bq].popBack()
	bj.pending--
	p.pending--
	bj.active++
	bj.steals++
	return bj, u, true
}

func (p *pool) removeLocked(j *poolJob) {
	for i, jj := range p.jobs {
		if jj == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			return
		}
	}
}

// blockingSend wraps a send that failed its non-blocking attempt: the
// worker releases its slot (spawning a replacement if queued units would
// otherwise wait), blocks in send, then reacquires. The pool keeps flowing
// while one query's consumer reads slowly.
func (p *pool) blockingSend(send func() bool) bool {
	p.mu.Lock()
	p.running--
	p.spawnLocked()
	p.slotFree.Signal()
	p.mu.Unlock()
	ok := send()
	p.mu.Lock()
	for p.running >= p.size {
		p.slotFree.Wait()
	}
	p.running++
	p.mu.Unlock()
	return ok
}

// runParallel executes fn(0..n-1) on the pool and waits for all of them —
// the generic fan-out used by the partitioned hash-join build. Single-unit
// and single-worker cases run inline.
func (e *Engine) runParallel(ctx context.Context, n int, fn func(int)) {
	p := e.getPool()
	if n <= 1 || p.size <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	done := make(chan struct{})
	units := make([]unit, n)
	for i := range units {
		units[i] = unit{run: func() {
			if ctx.Err() == nil {
				fn(i)
			}
		}}
	}
	j := &poolJob{
		run:    func(u unit) { u.run() },
		finish: func(int64) { close(done) },
	}
	p.dispatch(j, units)
	<-done
}

// scanMode selects how a scan job delivers its results.
type scanMode int

const (
	// scanStream gathers every morsel's batches into one bounded MPSC
	// channel — the ASAP path every row consumer reads, the sort stage
	// included.
	scanStream scanMode = iota
	// scanFold computes per-container aggregate partials and combines them
	// in container order — the aggregate pushdown.
	scanFold
)

// contFold is one container's aggregate partial. Partials combine sorted
// by container ID, so SUM/AVG are bit-identical across worker AND shard
// counts (the container set is invariant under trixel-mod-N sharding).
type contFold struct {
	cid htm.ID
	p   aggPartial
}

// scanJob is one leaf scan's execution state on the pool: the morsels come
// from the plan, the workers are pooled per job, and the mode decides how
// batches leave.
type scanJob struct {
	e      *Engine
	op     *scanOp
	ctx    context.Context
	rows   *Rows
	mode   scanMode
	agg    query.AggFunc
	pooled bool // units run on pool workers (not the single-morsel fast path)

	out chan Batch // the gathered stream, or the fold's one-row result

	foldMu sync.Mutex
	folds  []contFold

	// Worker state is pooled per job: a unit checks out a scanWorker
	// (accessor, column reader, current batch) and returns it, so the
	// number of workers ever built equals the job's peak parallelism.
	wmu  sync.Mutex
	free []*scanWorker
	all  []*scanWorker
}

func (o *scanOp) newJob(ctx context.Context, rows *Rows, mode scanMode) *scanJob {
	return &scanJob{e: o.e, op: o, ctx: ctx, rows: rows, mode: mode}
}

// dispatch hands the job's morsels to the scheduler. Zero morsels finish
// immediately; a single morsel takes the fast path — one plain goroutine,
// no pool bookkeeping at all (small cone queries stop paying scatter
// setup). Everything else becomes pool units.
func (j *scanJob) dispatch() {
	ms := j.op.morsels
	if st := j.op.stats; st != nil {
		st.markStart()
		st.morsels.Add(int64(len(ms)))
	}
	switch len(ms) {
	case 0:
		j.finish(0)
	case 1:
		go func() {
			j.runUnit(unit{cids: ms[0]})
			j.finish(0)
		}()
	default:
		j.pooled = true
		units := make([]unit, len(ms))
		for i, m := range ms {
			units[i] = unit{cids: m}
		}
		pj := &poolJob{run: j.runUnit, finish: j.finish}
		j.e.getPool().dispatch(pj, units)
	}
}

// getWorker checks a scan worker out of the job's free list, building one
// on first need.
func (j *scanJob) getWorker() *scanWorker {
	j.wmu.Lock()
	if n := len(j.free); n > 0 {
		w := j.free[n-1]
		j.free = j.free[:n-1]
		j.wmu.Unlock()
		return w
	}
	j.wmu.Unlock()
	w := newScanWorker(j.e, j.op, j.mode == scanFold)
	j.wmu.Lock()
	j.all = append(j.all, w)
	j.wmu.Unlock()
	return w
}

func (j *scanJob) putWorker(w *scanWorker) {
	j.wmu.Lock()
	j.free = append(j.free, w)
	j.wmu.Unlock()
}

// emitTo builds the delivery func for one output channel: a non-blocking
// fast path, then — on a pool worker — a slot-releasing blocking send, so
// a slow consumer parks its own query only.
func (j *scanJob) emitTo(out chan Batch) func(Batch) bool {
	return func(b Batch) bool {
		select {
		case out <- b:
			return true
		default:
		}
		send := func() bool {
			select {
			case out <- b:
				return true
			case <-j.ctx.Done():
				// The batch is dropped: the stream was cut off
				// mid-production.
				j.rows.interrupted.Store(true)
				return false
			}
		}
		if j.pooled {
			return j.e.getPool().blockingSend(send)
		}
		return send()
	}
}

// runUnit executes one morsel: check out a pooled worker, wire its emit for
// the job's mode, and scan the container run, reading each container from
// its owning slice.
func (j *scanJob) runUnit(u unit) {
	if j.ctx.Err() != nil {
		j.rows.interrupted.Store(true)
		return
	}
	w := j.getWorker()
	defer j.putWorker(w)
	st := j.op.stats

	if j.mode == scanFold {
		for _, cid := range u.cids {
			if j.ctx.Err() != nil {
				j.rows.interrupted.Store(true)
				return
			}
			var p aggPartial
			w.emit = func(b Batch) bool {
				for i := range b {
					p.fold(j.agg, &b[i])
				}
				if st != nil {
					st.rowsOut.Add(int64(len(b)))
				}
				return true
			}
			_, count, slab := j.op.st.ColumnData(cid)
			examined, _ := w.scanKernel(count, slab) // the fold emit never refuses
			if st != nil {
				st.rowsIn.Add(int64(examined))
			}
			w.flush() // folds the remainder
			j.foldMu.Lock()
			j.folds = append(j.folds, contFold{cid: cid, p: p})
			j.foldMu.Unlock()
		}
		return
	}

	w.emit = j.emitTo(j.out)
	for _, cid := range u.cids {
		if j.ctx.Err() != nil {
			j.rows.interrupted.Store(true)
			return
		}
		_, count, slab := j.op.st.ColumnData(cid)
		examined, ok := w.scanKernel(count, slab)
		if st != nil {
			st.rowsIn.Add(int64(examined))
		}
		if !ok {
			j.rows.interrupted.Store(true)
			return
		}
	}
}

// finish completes the job once every unit ran: flush worker remainders
// (stream mode keeps rows batched across morsels), fold the pool counters
// into the plan stats, and close or emit the output. It runs on its own
// goroutine, never on a pool slot.
func (j *scanJob) finish(steals int64) {
	st := j.op.stats
	if j.mode == scanStream {
		for _, w := range j.all {
			w.emit = func(b Batch) bool {
				select {
				case j.out <- b:
					return true
				case <-j.ctx.Done():
					j.rows.interrupted.Store(true)
					return false
				}
			}
			if !w.flush() {
				break
			}
		}
	}
	if st != nil {
		for _, w := range j.all {
			st.bytesDecoded.Add(w.reader.BytesDecoded())
		}
		st.steals.Add(steals)
		st.workers.Store(int64(len(j.all)))
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
// emits the single aggregate row. An empty fold set still answers (COUNT
// of nothing is 0), matching the stream aggregate.
func (j *scanJob) finishFold() {
	defer close(j.out)
	sort.Slice(j.folds, func(a, b int) bool { return j.folds[a].cid < j.folds[b].cid })
	var total aggPartial
	for i := range j.folds {
		total.combine(j.folds[i].p)
	}
	select {
	case j.out <- Batch{{Values: []float64{total.final(j.agg)}}}:
	case <-j.ctx.Done():
		j.rows.interrupted.Store(true)
	}
}

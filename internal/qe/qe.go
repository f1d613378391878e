// Package qe is the multi-threaded query engine of the Science Archive.
//
// Each query is parsed into a Query Execution Tree (package query); this
// package executes it: "Each node of the QET is either a query or a
// set-operation node, and returns a bag of object-pointers upon execution.
// The multi-threaded Query Engine executes in parallel at all the nodes at a
// given level of the QET. Results from child nodes are passed up the tree as
// soon as they are generated" — the ASAP data push that puts first results
// in front of the astronomer almost immediately. Aggregation, sort,
// intersection and difference nodes block on (at least) one child, exactly
// as the paper prescribes.
//
// Query (scan) nodes prune I/O with the HTM index: the WHERE clause's
// half-space region is covered (package region) and only containers
// overlapping the coverage are read; within candidate containers the exact
// compiled predicate — including the per-object Cartesian geometry test —
// decides membership.
package qe

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdss/internal/catalog"
	"sdss/internal/query"
	"sdss/internal/region"
	"sdss/internal/store"
)

// Result is one element of a bag: the object pointer and, for leaf query
// nodes, the projected attribute values.
type Result struct {
	ObjID  catalog.ObjID
	Values []float64
}

// Batch groups results to amortize channel traffic. It is an ordinary
// slice: whoever receives one may keep it, re-slice it, or drop it.
type Batch []Result

// RecycleBatch does nothing. Batches are garbage-collected like any other
// slice; the function remains only so existing callers keep compiling.
func RecycleBatch(Batch) {}

// DefaultCoverDepth caps the depth a query region is covered to when
// Engine.CoverDepth is 0. Depth-10 trixels are ~5.3 arcmin
// (htm.TrixelAngle(10)); a store must hold ~4^(10-d) records per depth-d
// container before the per-table rule descends that far.
const DefaultCoverDepth = 10

// Engine executes prepared statements against the archive's stores: the
// physical planner (plan.go) compiles each statement into an operator tree
// with cost-chosen access paths, and ExecutePlan runs it. Each store may be
// split into shard slices (store.Sharded); leaf scans are chunked into
// container-run morsels, which each scan runs on Workers goroutines of its
// own (morsel.go). A scan's rows gather into one shared MPSC stream, which
// ORDER BY sorts and the joins build or probe from; aggregates instead
// combine per-container partials.
type Engine struct {
	Photo *store.Sharded // PhotoObj records
	Tag   *store.Sharded // Tag records (may be nil if no tag partition)
	Spec  *store.Sharded // SpecObj records (may be nil)

	// CoverDepth is the HTM coverage depth for spatial pruning. 0 means
	// per table: each leaf covers only as deep as its store's record
	// density can use (see coverDepthFor), at most DefaultCoverDepth.
	CoverDepth int
	// Workers is each scan's parallelism: a leaf scan runs its morsels on
	// at most this many goroutines, as do the hash-join build and the
	// neighbor join's build, probe and merge (default GOMAXPROCS). It
	// bounds each scan, not the engine: concurrent queries share
	// GOMAXPROCS.
	Workers int
	// NoIndex disables HTM coverage pruning, forcing full-table scans.
	// It exists for the index-versus-scan crossover experiment (E14).
	NoIndex bool

	// morselTarget and batchRows override the records per scan morsel
	// (default 4096) and the results per batch (default 256). Only tests
	// set them, to force many small morsels or batches.
	morselTarget int
	batchRows    int
}

// coverDepthFor is the depth a leaf over st covers its region to: the
// explicit CoverDepth when set, otherwise coverDepthFromDensity of the
// store's own shape.
func (e *Engine) coverDepthFor(st *store.Sharded) int {
	if e.CoverDepth > 0 {
		return e.CoverDepth
	}
	return coverDepthFromDensity(st.ContainerDepth(), st.NumRecords(), st.NumContainers())
}

// coverDepthFromDensity is the deepest level at which a trixel still holds
// about one record on average: container depth cd plus ⌊log₄(records per
// container)⌋, clamped to [cd, DefaultCoverDepth]. Below it, classifying
// trixels against the region costs more than the record tests it saves,
// and the exact predicate re-checks every candidate record anyway. An empty
// store covers at cd.
func coverDepthFromDensity(cd int, records int64, containers int) int {
	d := cd
	if containers > 0 {
		for per := records / int64(containers); per >= 4 && d < DefaultCoverDepth; per /= 4 {
			d++
		}
	}
	return d
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ScanWorkers reports the goroutines each scan runs its morsels on at
// most: Workers, or GOMAXPROCS when Workers is 0.
func (e *Engine) ScanWorkers() int {
	return e.workers()
}

func (e *Engine) batchSize() int {
	if e.batchRows > 0 {
		return e.batchRows
	}
	return 256
}

func (e *Engine) storeFor(t query.Table) (*store.Sharded, error) {
	var s *store.Sharded
	switch t {
	case query.TablePhoto:
		s = e.Photo
	case query.TableTag:
		s = e.Tag
	case query.TableSpec:
		s = e.Spec
	}
	if s == nil {
		return nil, fmt.Errorf("qe: table %s is not loaded in this archive", t)
	}
	return s, nil
}

// Rows is a streaming query result. Read batches from C until it closes,
// then check Err. Close cancels the query early; it blocks until every
// goroutine of the execution tree has exited, so a closed Rows never leaks
// scan workers.
type Rows struct {
	// C delivers result batches as soon as nodes produce them.
	C <-chan Batch

	cols      []query.Column
	cancel    context.CancelFunc
	done      <-chan struct{}
	errMu     sync.Mutex
	err       error
	truncated bool
	// interrupted records that a tree node stopped mid-production because
	// the context fired; it distinguishes a timed-out stream from one
	// whose deadline lapsed only after every row was delivered. Rows.send
	// and Rows.stop are its only writers: every producer sends and stops
	// through them.
	interrupted atomic.Bool
}

// send delivers b on out, or marks the stream interrupted and reports false
// when the context fires first: the batch in hand is dropped, so the
// stream was cut off mid-production.
func (r *Rows) send(ctx context.Context, out chan<- Batch, b Batch) bool {
	select {
	case out <- b:
		return true
	case <-ctx.Done():
		r.interrupted.Store(true)
		return false
	}
}

// stop reports whether the context is done, marking the stream interrupted
// if so: a producer that checks it before emitting (or after draining an
// input that may have been cut short) abandons an incomplete answer.
func (r *Rows) stop(ctx context.Context) bool {
	if ctx.Err() != nil {
		r.interrupted.Store(true)
		return true
	}
	return false
}

func (r *Rows) setErr(err error) {
	r.errMu.Lock()
	if r.err == nil && err != nil && err != context.Canceled {
		r.err = err
	}
	r.errMu.Unlock()
	r.cancel()
}

// Columns describes the result schema: one entry per value in each
// Result.Values slice, in order, named and typed by the compiler's
// projection.
func (r *Rows) Columns() []query.Column { return r.cols }

// Truncated reports whether a row limit (ExecOptions.Limit) cut the stream
// short while more rows were still arriving. Valid after C closes.
func (r *Rows) Truncated() bool {
	<-r.done
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.truncated
}

// Err reports the first error the tree hit; valid after C closes.
func (r *Rows) Err() error {
	<-r.done
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// Close cancels the query, discards any undelivered batches, and waits for
// the execution tree to shut down. It is idempotent and safe to call while
// another goroutine is still ranging over C.
func (r *Rows) Close() {
	r.cancel()
	for range r.C {
	}
	<-r.done
}

// Collect drains the stream into a slice.
func (r *Rows) Collect() ([]Result, error) {
	var out []Result
	for b := range r.C {
		out = append(out, b...)
	}
	return out, r.Err()
}

// ErrTimeout is reported by Rows.Err when ExecOptions.Timeout expired
// before the query completed.
var ErrTimeout = errors.New("qe: query timeout exceeded")

// ExecOptions bounds one query execution. The zero value means unbounded:
// every matching row, no deadline.
type ExecOptions struct {
	// Limit caps delivered rows (after Offset); 0 = unlimited. When the
	// cap cuts off a still-producing stream, Rows.Truncated reports true.
	Limit int
	// Offset skips that many rows before the first delivery.
	Offset int
	// Timeout aborts the query after a wall-clock duration; the stream
	// ends and Rows.Err reports ErrTimeout.
	Timeout time.Duration
	// Analyze requests EXPLAIN ANALYZE instrumentation: every physical
	// operator counts rows and timing, read from the plan's Describe
	// after the stream ends. Instrumentation is wired at planning time —
	// ExecuteOpts handles that; ExecutePlan rejects Analyze on a plan
	// that was not built with PlanAnalyze.
	Analyze bool
}

// Execute runs a prepared QET and returns the streaming result.
func (e *Engine) Execute(ctx context.Context, prep *query.Prepared) (*Rows, error) {
	return e.ExecuteOpts(ctx, prep, ExecOptions{})
}

// ExecuteOpts plans and runs a prepared QET under per-query bounds.
func (e *Engine) ExecuteOpts(ctx context.Context, prep *query.Prepared, opts ExecOptions) (*Rows, error) {
	plan, err := e.PlanAnalyze(prep, opts.Analyze)
	if err != nil {
		return nil, err
	}
	return e.ExecutePlan(ctx, plan, opts)
}

// ExecutePlan runs an already planned statement. The plan is the physical
// operator tree Engine.Plan produced; running it a second time re-opens the
// same operators (safe — operators hold no per-run state beyond counters).
func (e *Engine) ExecutePlan(ctx context.Context, plan *ExecPlan, opts ExecOptions) (*Rows, error) {
	if opts.Analyze && !plan.analyze {
		return nil, errors.New("qe: ExecOptions.Analyze requires a plan built with PlanAnalyze")
	}
	ctx, cancel := context.WithCancel(ctx)
	var timedOut func() bool
	if opts.Timeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, opts.Timeout)
		prev := cancel
		cancel = func() { tcancel(); prev() }
		timedOut = func() bool { return tctx.Err() == context.DeadlineExceeded }
		ctx = tctx
	}
	done := make(chan struct{})
	rows := &Rows{cols: plan.Columns(), cancel: cancel, done: done}
	out := plan.root.open(ctx, rows)
	final := make(chan Batch, 4)
	rows.C = final
	go func() {
		defer close(done)
		defer close(final)
		skip, remaining := opts.Offset, opts.Limit
		for b := range out {
			if skip > 0 {
				if len(b) <= skip {
					skip -= len(b)
					continue
				}
				b = b[skip:]
				skip = 0
			}
			if opts.Limit > 0 && len(b) > remaining {
				// Rows arrived past the cap: the limit truncated a
				// still-producing stream. Deliver what fits, then stop.
				rows.errMu.Lock()
				rows.truncated = true
				rows.errMu.Unlock()
				if remaining > 0 {
					rows.send(ctx, final, b[:remaining])
				}
				break
			}
			remaining -= len(b)
			if !rows.send(ctx, final, b) {
				break
			}
		}
		// The one exit: stop and drain the tree, then record ErrTimeout
		// only when the deadline lapsed AND some node was actually cut off
		// mid-production — a deadline that expires just after the tree
		// delivered everything is not a timeout.
		cancel()
		for range out {
		}
		if timedOut != nil && timedOut() && rows.interrupted.Load() {
			rows.errMu.Lock()
			if rows.err == nil {
				rows.err = ErrTimeout
			}
			rows.errMu.Unlock()
		}
	}()
	return rows, nil
}

// ExecuteString parses, prepares, and runs query text.
func (e *Engine) ExecuteString(ctx context.Context, src string) (*Rows, error) {
	prep, err := query.PrepareString(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, prep)
}

// ExecuteStringOpts parses, prepares, and runs query text under bounds.
func (e *Engine) ExecuteStringOpts(ctx context.Context, src string, opts ExecOptions) (*Rows, error) {
	prep, err := query.PrepareString(src)
	if err != nil {
		return nil, err
	}
	return e.ExecuteOpts(ctx, prep, opts)
}

// runUnion merges children: batches flow upward the moment either child
// produces them; duplicates (an object satisfying both sides) are
// suppressed so the result is a set, as SQL UNION and the paper's bags of
// pointers imply.
func (e *Engine) runUnion(ctx context.Context, left, right <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		seen := make(map[catalog.ObjID]struct{})
		var mu sync.Mutex
		forward := func(in <-chan Batch) {
			for b := range in {
				mu.Lock()
				// In-place filter: the surviving results shift down inside
				// the same batch.
				filtered := b[:0]
				for _, r := range b {
					if _, dup := seen[r.ObjID]; dup {
						continue
					}
					seen[r.ObjID] = struct{}{}
					filtered = append(filtered, r)
				}
				mu.Unlock()
				if len(filtered) == 0 {
					continue
				}
				if !rows.send(ctx, out, filtered) {
					for range in {
					}
					return
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); forward(left) }()
		go func() { defer wg.Done(); forward(right) }()
		wg.Wait()
	}()
	return out
}

// runIntersect drains the left child into a hash set (one child must be
// complete before results can be sent further up the tree), then opens and
// streams the right child through it. The right child stays unopened until
// the left completed: opened, its scan would run ahead into a stream nothing
// reads yet.
func (e *Engine) runIntersect(ctx context.Context, left <-chan Batch, openRight func() <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		inLeft := make(map[catalog.ObjID]struct{})
		for b := range left {
			for _, r := range b {
				inLeft[r.ObjID] = struct{}{}
			}
		}
		if rows.stop(ctx) {
			return
		}
		right := openRight()
		emitted := make(map[catalog.ObjID]struct{})
		for b := range right {
			keep := b[:0]
			for _, r := range b {
				if _, ok := inLeft[r.ObjID]; !ok {
					continue
				}
				if _, dup := emitted[r.ObjID]; dup {
					continue
				}
				emitted[r.ObjID] = struct{}{}
				keep = append(keep, r)
			}
			if len(keep) == 0 {
				continue
			}
			if !rows.send(ctx, out, keep) {
				for range right {
				}
				return
			}
		}
	}()
	return out
}

// runMinus drains the right child (the subtrahend must be complete), then
// opens and streams the left child filtered against it. The left child is
// deferred for the same reason as runIntersect's right.
func (e *Engine) runMinus(ctx context.Context, openLeft func() <-chan Batch, right <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		sub := make(map[catalog.ObjID]struct{})
		for b := range right {
			for _, r := range b {
				sub[r.ObjID] = struct{}{}
			}
		}
		if rows.stop(ctx) {
			return
		}
		left := openLeft()
		emitted := make(map[catalog.ObjID]struct{})
		for b := range left {
			keep := b[:0]
			for _, r := range b {
				if _, drop := sub[r.ObjID]; drop {
					continue
				}
				if _, dup := emitted[r.ObjID]; dup {
					continue
				}
				emitted[r.ObjID] = struct{}{}
				keep = append(keep, r)
			}
			if len(keep) == 0 {
				continue
			}
			if !rows.send(ctx, out, keep) {
				for range left {
				}
				return
			}
		}
	}()
	return out
}

// runLimit forwards the first n results then stops consuming.
func (e *Engine) runLimit(ctx context.Context, n int, in <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		defer func() {
			// Unblock the producer; the tree context may still be live
			// if the limit is below the result count.
			for range in {
			}
		}()
		remaining := n
		for b := range in {
			if len(b) > remaining {
				b = b[:remaining]
			}
			remaining -= len(b)
			if !rows.send(ctx, out, b) || remaining == 0 {
				return
			}
		}
	}()
	return out
}

// coverage computes the candidate trixel ranges for a select over st, or
// nil for a full-table scan. It runs once per leaf, in planLeaf, so the
// container counts EXPLAIN reports come from the cover the scan uses.
func (e *Engine) coverage(cs *query.CompiledSelect, st *store.Sharded) (*region.Coverage, error) {
	if cs.Region == nil || e.NoIndex {
		return nil, nil
	}
	return region.Cover(cs.Region, e.coverDepthFor(st))
}

// NumShards reports the scatter width: the number of shard slices a leaf
// scan fans out across (taken from the first loaded store).
func (e *Engine) NumShards() int {
	for _, s := range []*store.Sharded{e.Photo, e.Tag, e.Spec} {
		if s != nil {
			return s.NumShards()
		}
	}
	return 0
}

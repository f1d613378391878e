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
	"sdss/internal/htm"
	"sdss/internal/query"
	"sdss/internal/region"
	"sdss/internal/store"
)

// Result is one element of a bag: the object pointer and, for leaf query
// nodes, the projected attribute values.
type Result struct {
	ObjID catalog.ObjID
	// Key is the record's embedded fine HTM trixel when the result came off
	// a leaf scan (zero otherwise): the spatial join derives its partition
	// from it with a bit shift instead of a root-to-leaf sphere walk.
	Key    htm.ID
	Values []float64
}

// Batch groups results to amortize channel traffic.
type Batch []Result

// DefaultCoverDepth is the HTM depth query regions are covered to. Depth 10
// trixels are ~3 arcmin across: fine enough that candidate sets are tight,
// coarse enough that coverage stays small.
const DefaultCoverDepth = 10

// Engine executes prepared statements against the archive's stores: the
// physical planner (plan.go) compiles each statement into an operator tree
// with cost-chosen access paths, and ExecutePlan runs it. Each store may be
// split into shard slices (store.Sharded); leaf scans are chunked into
// (shard, container-run) morsels executed by an engine-wide work-stealing
// pool (morsel.go) and gathered shard-aware: ordered k-way merge under
// ORDER BY, per-container partial-aggregate combine for aggregates, one
// shared MPSC stream otherwise.
type Engine struct {
	Photo *store.Sharded // PhotoObj records
	Tag   *store.Sharded // Tag records (may be nil if no tag partition)
	Spec  *store.Sharded // SpecObj records (may be nil)

	// CoverDepth is the HTM coverage depth for spatial pruning.
	CoverDepth int
	// Workers sizes the engine-wide morsel pool: at most this many scan
	// morsels run at once across every concurrent query (default
	// GOMAXPROCS). Read at the pool's first dispatch.
	Workers int
	// MorselRows is the target record count per scheduler morsel (default
	// 4096). Smaller morsels steal and rebalance more aggressively at
	// higher dispatch overhead.
	MorselRows int
	// BatchSize is the number of results per batch.
	BatchSize int
	// Blocking disables the ASAP push: every node drains its children
	// completely before emitting. It exists for experiment E13 and should
	// stay false in production use.
	Blocking bool
	// NoIndex disables HTM coverage pruning, forcing full-table scans.
	// It exists for the index-versus-scan crossover experiment (E14).
	NoIndex bool
	// NoZone disables zone-map container pruning, so scans visit every
	// coverage candidate regardless of predicate bounds. It is an escape
	// hatch and the unpruned side of the zone-map conformance tests.
	NoZone bool
	// NoKernel disables the vectorized filter kernels over compressed
	// column blocks, forcing every scan onto the row loop. It is an escape
	// hatch mirroring NoZone and the row side of the kernel conformance
	// tests.
	NoKernel bool

	// The engine-wide morsel scheduler (morsel.go), created on first
	// dispatch and shared by every query on this engine.
	poolOnce sync.Once
	pl       *pool
}

// Clone returns a new engine over the same stores with the same
// configuration but its own (lazily created) morsel pool. Engines embed
// scheduler synchronization state and must not be copied by value; clone
// one to vary a knob (NoKernel, Workers, ...) for an A/B measurement.
func (e *Engine) Clone() *Engine {
	return &Engine{
		Photo: e.Photo, Tag: e.Tag, Spec: e.Spec,
		CoverDepth: e.CoverDepth, Workers: e.Workers, MorselRows: e.MorselRows,
		BatchSize: e.BatchSize, Blocking: e.Blocking, NoIndex: e.NoIndex,
		NoZone: e.NoZone, NoKernel: e.NoKernel,
	}
}

func (e *Engine) coverDepth() int {
	if e.CoverDepth > 0 {
		return e.CoverDepth
	}
	return DefaultCoverDepth
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PoolSize reports the morsel pool's worker slot count. Creating the pool
// is free (workers spawn on demand), so this is safe to call on an idle
// engine and always matches what dispatches will use.
func (e *Engine) PoolSize() int {
	return e.getPool().size
}

func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
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
	// interrupted is set by tree nodes that stop mid-production because
	// the context fired; it distinguishes a timed-out stream from one
	// whose deadline lapsed only after every row was delivered.
	interrupted atomic.Bool
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
	for b := range r.C {
		RecycleBatch(b)
	}
	<-r.done
}

// Collect drains the stream into a slice. The batch buffers are recycled
// (the Result structs are copied out; their Values arrays are not pooled and
// stay valid).
func (r *Rows) Collect() ([]Result, error) {
	var out []Result
	for b := range r.C {
		out = append(out, b...)
		RecycleBatch(b)
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
		drain := func() {
			cancel()
			for b := range out {
				RecycleBatch(b)
			}
		}
		// markTimeout records ErrTimeout only when the deadline lapsed
		// AND a tree node was actually cut off mid-production: a deadline
		// that expires just after the tree delivered everything is not a
		// timeout.
		markTimeout := func() {
			if timedOut != nil && timedOut() && rows.interrupted.Load() {
				rows.errMu.Lock()
				if rows.err == nil {
					rows.err = ErrTimeout
				}
				rows.errMu.Unlock()
			}
		}
		skip, remaining := opts.Offset, opts.Limit
		for b := range out {
			if skip > 0 {
				if len(b) <= skip {
					skip -= len(b)
					RecycleBatch(b)
					continue
				}
				// The forwarded sub-slice carries the buffer's ownership;
				// the skipped head is simply dead capacity until recycle.
				b = b[skip:]
				skip = 0
			}
			if opts.Limit > 0 {
				if remaining == 0 {
					// A row arrived past the cap: the limit truncated
					// a still-producing stream.
					rows.errMu.Lock()
					rows.truncated = true
					rows.errMu.Unlock()
					RecycleBatch(b)
					drain()
					return
				}
				if len(b) > remaining {
					b = b[:remaining]
					rows.errMu.Lock()
					rows.truncated = true
					rows.errMu.Unlock()
					remaining = 0
					// Deliver the clipped batch, then stop.
					select {
					case final <- b:
					case <-ctx.Done():
						// The clipped batch is dropped: mark the stream so
						// Err() surfaces the timeout instead of reporting a
						// silently shortened result.
						rows.interrupted.Store(true)
						RecycleBatch(b)
					}
					drain()
					return
				}
				remaining -= len(b)
			}
			select {
			case final <- b:
			case <-ctx.Done():
				// A produced batch is dropped here: without the mark,
				// markTimeout would see an "uninterrupted" stream and the
				// partial result would pass for complete.
				rows.interrupted.Store(true)
				RecycleBatch(b)
				drain()
				markTimeout()
				return
			}
		}
		markTimeout()
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

// runUnion merges children. In ASAP mode batches flow upward the moment
// either child produces them; duplicates (an object satisfying both sides)
// are suppressed so the result is a set, as SQL UNION and the paper's bags
// of pointers imply.
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
				// the same buffer, whose ownership travels with them.
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
					RecycleBatch(b)
					continue
				}
				select {
				case out <- filtered:
				case <-ctx.Done():
					rows.interrupted.Store(true)
					RecycleBatch(filtered)
					for b := range in {
						RecycleBatch(b)
					}
					return
				}
			}
		}
		if e.Blocking {
			// Blocking comparison mode: drain both children fully first.
			var all []Batch
			for b := range left {
				all = append(all, b)
			}
			for b := range right {
				all = append(all, b)
			}
			replay := make(chan Batch, len(all))
			for _, b := range all {
				replay <- b
			}
			close(replay)
			forward(replay)
			return
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
// the left completed: its morsels would otherwise hold shared-pool workers
// blocked on an unconsumed stream.
func (e *Engine) runIntersect(ctx context.Context, left <-chan Batch, openRight func() <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		inLeft := make(map[catalog.ObjID]struct{})
		for b := range left {
			for _, r := range b {
				inLeft[r.ObjID] = struct{}{}
			}
			RecycleBatch(b)
		}
		if ctx.Err() != nil {
			rows.interrupted.Store(true)
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
				RecycleBatch(b)
				continue
			}
			select {
			case out <- keep:
			case <-ctx.Done():
				rows.interrupted.Store(true)
				RecycleBatch(keep)
				for b := range right {
					RecycleBatch(b)
				}
				return
			}
		}
	}()
	return out
}

// runMinus drains the right child (the subtrahend must be complete), then
// opens and streams the left child filtered against it. The left child is
// deferred for the same shared-pool reason as runIntersect's right.
func (e *Engine) runMinus(ctx context.Context, openLeft func() <-chan Batch, right <-chan Batch, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		sub := make(map[catalog.ObjID]struct{})
		for b := range right {
			for _, r := range b {
				sub[r.ObjID] = struct{}{}
			}
			RecycleBatch(b)
		}
		if ctx.Err() != nil {
			rows.interrupted.Store(true)
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
				RecycleBatch(b)
				continue
			}
			select {
			case out <- keep:
			case <-ctx.Done():
				rows.interrupted.Store(true)
				RecycleBatch(keep)
				for b := range left {
					RecycleBatch(b)
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
			for b := range in {
				RecycleBatch(b)
			}
		}()
		remaining := n
		for b := range in {
			if len(b) > remaining {
				b = b[:remaining]
			}
			remaining -= len(b)
			select {
			case out <- b:
			case <-ctx.Done():
				// The batch in hand is dropped: the stream was cut off
				// mid-production.
				rows.interrupted.Store(true)
				RecycleBatch(b)
				return
			}
			if remaining == 0 {
				return
			}
		}
	}()
	return out
}

// coverage computes the candidate trixel ranges for a select, or nil for a
// full-table scan.
func (e *Engine) coverage(cs *query.CompiledSelect) (*region.Coverage, error) {
	if cs.Region == nil || e.NoIndex {
		return nil, nil
	}
	return region.Cover(cs.Region, e.coverDepth())
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

// ShardFanout describes how one leaf scan node fans out across the shard
// slices of its table: the candidate (coverage-overlapping) container count
// on each slice. EXPLAIN serves this so clients can see the scatter before
// paying for it.
type ShardFanout struct {
	Table   string `json:"table"`
	Indexed bool   `json:"indexed"`
	// ContainersPerShard is the candidate (coverage-overlapping) container
	// count on each slice, in shard order.
	ContainersPerShard []int `json:"containers_per_shard"`
	ContainersTotal    int   `json:"containers_total"`
	// ZonePruned counts candidates whose zone maps prove no satisfying
	// record can live in them; ContainersScanned is what the scan will
	// actually read (ContainersTotal - ZonePruned).
	ZonePruned        int `json:"zone_pruned"`
	ContainersScanned int `json:"containers_scanned"`
}

// Fanout computes the per-shard scatter of every leaf scan in a prepared
// statement, in tree order (left before right; a join contributes its left
// then right side scans). It reports the coverage + zone pruning view
// independent of the physical planner: when the planner's crossover rule
// drops the HTM path (see planLeaf), the executed scan touches more
// containers than Fanout's candidate count — compare against the physical
// plan's Containers for the as-executed numbers.
func (e *Engine) Fanout(prep *query.Prepared) ([]ShardFanout, error) {
	if prep.Join != nil {
		left, err := e.fanoutSelect(prep.Join.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.fanoutSelect(prep.Join.Right)
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	}
	if prep.Select == nil {
		left, err := e.Fanout(prep.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.Fanout(prep.Right)
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	}
	return e.fanoutSelect(prep.Select)
}

// fanoutSelect computes one leaf scan's per-shard scatter.
func (e *Engine) fanoutSelect(cs *query.CompiledSelect) ([]ShardFanout, error) {
	st, err := e.storeFor(cs.Table)
	if err != nil {
		return nil, err
	}
	cov, err := e.coverage(cs)
	if err != nil {
		return nil, err
	}
	var rangeSet *htm.RangeSet
	if cov != nil {
		rangeSet = cov.RangeSet()
	}
	fo := ShardFanout{
		Table:              cs.Table.String(),
		Indexed:            rangeSet != nil,
		ContainersPerShard: make([]int, st.NumShards()),
	}
	// zoneAdmit already answers false for every container when the bounds
	// are provably unsatisfiable, so Never needs no special case here.
	zoneCheck := e.zoneAdmit(cs)
	for i, sh := range st.Shards() {
		for _, cid := range sh.Containers() {
			if rangeSet != nil && !rangeSet.OverlapsTrixel(cid) {
				continue
			}
			fo.ContainersPerShard[i]++
			fo.ContainersTotal++
			if zoneCheck != nil && !sh.CheckZone(cid, zoneCheck.Admit) {
				fo.ZonePruned++
			} else {
				fo.ContainersScanned++
			}
		}
	}
	return []ShardFanout{fo}, nil
}

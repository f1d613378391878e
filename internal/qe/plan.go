// The physical planner. query.Prepared carries the compiled statement (what
// to compute: leaf predicates, pushed below joins, with their coverage
// regions and zone bounds); this file decides how to compute it:
//
//   - Access path per leaf, cost-based: HTM coverage pruning is taken only
//     when the candidate containers hold comfortably fewer records than the
//     table (the E14 index-versus-scan crossover — past that point the
//     per-record fine filter costs more than it saves); zone-map pruning
//     applies whenever the predicate yields attribute bounds; otherwise a
//     full scan.
//   - Cardinality estimates from store statistics: per-container record
//     counts and zone min/max spans (query.ZoneFilter, the flattened form
//     of the predicate's Bounds, batched over each shard's candidates via
//     store.ZoneStatsAll), with a partial-coverage discount for containers
//     the region only clips.
//   - Scan cost in bytes scanned: the encoded column-block bytes of the
//     columns the kernel references (their raw bytes × the store's measured
//     compression ratio) — so EXPLAIN's est_cost is comparable to the
//     bytes_decoded actual.
//   - Join sides by estimated cardinality: the hash join builds on the
//     smaller input and probes with the larger.
//
// The result is an Operator tree (op.go) mirroring the executable shape.
// It is the only description of a statement: Describe() serves it to
// EXPLAIN with estimates (and actuals after EXPLAIN ANALYZE).
package qe

import (
	"context"
	"fmt"
	"strings"

	"sdss/internal/htm"
	"sdss/internal/query"
	"sdss/internal/store"
)

// indexCrossover is the fraction of the table's records above which
// coverage pruning stops paying: when the candidate containers hold more
// than this share of all records, the planner drops the HTM path and scans
// the containers without per-record trixel checks (measured in E14).
const indexCrossover = 0.6

// partialCoverFraction discounts the estimated rows of containers the
// coverage region only partially overlaps.
const partialCoverFraction = 0.3

// ExecPlan is a planned, executable statement: the physical operator tree
// plus its result schema.
type ExecPlan struct {
	root    Operator
	cols    []query.Column
	analyze bool
}

// Columns returns the plan's result schema.
func (p *ExecPlan) Columns() []query.Column { return p.cols }

// Analyzed reports whether the plan's operators carry live counters.
func (p *ExecPlan) Analyzed() bool { return p.analyze }

// Describe snapshots the physical plan tree. Called after the plan ran
// under ANALYZE, every node carries actual row counts and elapsed time
// alongside the estimates.
func (p *ExecPlan) Describe() *OpNode { return p.root.describe() }

// Text renders the physical plan as indented text, one operator per line.
func (p *ExecPlan) Text() string {
	var b strings.Builder
	renderOpNode(&b, p.Describe(), 0)
	return b.String()
}

// Plan compiles a prepared statement into its physical plan.
func (e *Engine) Plan(prep *query.Prepared) (*ExecPlan, error) {
	return e.PlanAnalyze(prep, false)
}

// PlanAnalyze compiles a prepared statement into its physical plan; with
// analyze set, every operator is instrumented to count rows and elapsed
// time as it runs (EXPLAIN ANALYZE).
func (e *Engine) PlanAnalyze(prep *query.Prepared, analyze bool) (*ExecPlan, error) {
	root, err := e.planNode(prep, analyze)
	if err != nil {
		return nil, err
	}
	return &ExecPlan{root: root, cols: prep.Columns(), analyze: analyze}, nil
}

func newStats(analyze bool) *opStats {
	if !analyze {
		return nil
	}
	return &opStats{}
}

// planNode plans one QET node.
func (e *Engine) planNode(prep *query.Prepared, analyze bool) (Operator, error) {
	switch {
	case prep.Select != nil:
		return e.planSelect(prep.Select, analyze)
	case prep.Join != nil:
		return e.planJoin(prep.Join, analyze)
	default:
		left, err := e.planNode(prep.Left, analyze)
		if err != nil {
			return nil, err
		}
		right, err := e.planNode(prep.Right, analyze)
		if err != nil {
			return nil, err
		}
		op := &setOp{e: e, op: prep.Op, left: left, right: right}
		op.opBase = opBase{
			info: OpNode{
				Op:      strings.ToLower(prep.Op.String()),
				EstRows: left.node().EstRows + right.node().EstRows,
				EstCost: left.node().EstCost + right.node().EstCost,
			},
			stats:    newStats(analyze),
			children: []Operator{left, right},
		}
		return op, nil
	}
}

// planSelect plans a single-table select: the leaf scan with its chosen
// access path, wrapped by aggregate / sort / limit operators as the
// statement requires.
func (e *Engine) planSelect(cs *query.CompiledSelect, analyze bool) (Operator, error) {
	leaf, err := e.planLeaf(cs, analyze)
	if err != nil {
		return nil, err
	}
	est := leaf.info.EstRows
	cost := leaf.info.EstCost
	var op Operator = leaf
	switch {
	case cs.Agg != query.AggNone:
		op = e.newAggOp(cs.Agg, op, cost, analyze)
	case cs.Order != query.AttrInvalid:
		orderBy := query.AttrName(cs.Table, cs.Order)
		op = e.newSortOp(len(cs.Cols), orderBy, cs.Desc, op, est, cost, analyze)
		if cs.Limit > 0 {
			// Top-N pushdown: every scan worker keeps only its best Limit
			// rows, so the sort receives at most workers × Limit.
			leaf.topN = cs.Limit
			leaf.info.Limit, leaf.info.OrderBy, leaf.info.Desc = cs.Limit, orderBy, cs.Desc
			op = e.newLimitOp(cs.Limit, op, est, cost, analyze)
		}
	case cs.Limit > 0:
		op = e.newLimitOp(cs.Limit, op, est, cost, analyze)
	}
	return op, nil
}

// planLeaf chooses the access path for one leaf scan and computes its
// estimates from store statistics. Every scan runs the column kernel, so
// the table's store must keep column blocks (store.Options.Columns).
func (e *Engine) planLeaf(cs *query.CompiledSelect, analyze bool) (*scanOp, error) {
	st, err := e.storeFor(cs.Table)
	if err != nil {
		return nil, err
	}
	if !st.ColBlkEnabled() {
		return nil, fmt.Errorf("qe: table %s: store keeps no column blocks (store.Options.Columns is nil)", cs.Table)
	}
	shards := st.Shards()
	op := &scanOp{e: e, cs: cs, st: st, plan: newScanPlan(cs)}
	op.opBase = opBase{
		info: OpNode{
			Op:     "scan",
			Table:  cs.Table.String(),
			Shards: len(shards),
			Kernel: op.plan.kernel.name(),
		},
		stats: newStats(analyze),
	}
	if cs.Source != nil && cs.Source.Where != nil {
		op.info.Filter = cs.Source.Where.String()
	}

	// A provably false predicate answers empty without touching a single
	// container.
	if cs.Bounds != nil && cs.Bounds.Never {
		op.info.Access = "empty"
		return op, nil
	}

	cov, err := e.coverage(cs, st)
	if err != nil {
		return nil, err
	}
	var rangeSet *htm.RangeSet
	if cov != nil {
		rangeSet = cov.RangeSet()
		op.info.CoverDepth = cov.Depth
	}

	totalRecords := float64(st.NumRecords())

	// Candidate containers under coverage pruning (rs == nil admits
	// everything), listed per slice because the statistics passes below run
	// per slice, and the records they hold — the cost of that access path.
	collect := func(rs *htm.RangeSet) (cands [][]htm.ID, n int, records float64) {
		cands = make([][]htm.ID, len(shards))
		for i, sh := range shards {
			all := sh.Containers()
			cands[i] = make([]htm.ID, 0, len(all))
			for _, cid := range all {
				if rs != nil && !rs.OverlapsTrixel(cid) {
					continue
				}
				cands[i] = append(cands[i], cid)
				n++
			}
			// records only feeds the index-versus-scan crossover, which is
			// moot without coverage pruning — skip the stats pass then.
			if rs != nil {
				sh.ZoneStatsAll(cands[i], false, func(_, count int, _, _ []float64, _ []bool) {
					records += float64(count)
				})
			}
		}
		return cands, n, records
	}
	candidates, nCandidates, candRecords := collect(rangeSet)

	// Cost-based index-versus-scan crossover: when coverage admits most of
	// the table anyway, the per-record fine filter costs more than the
	// skipped containers save.
	//lint:skylint-ignore nansafe planner cost heuristic on record counts; either branch yields a correct plan
	if rangeSet != nil && candRecords >= indexCrossover*totalRecords {
		rangeSet = nil
		candidates, nCandidates, _ = collect(nil)
	}

	// Zone-map pruning over the surviving candidates, folding the
	// cardinality estimate from each admitted container's statistics into
	// one flat list across slices. Zones are only consulted when the
	// predicate yields bounds — a pure spatial or unfiltered query must not
	// pay on-demand zone rebuilds on a pre-zone archive just to be planned.
	zoneCheck := cs.Bounds.CompileZone()
	var estRows, scanRecords float64
	pruned := 0
	op.containers = make([]htm.ID, 0, nCandidates)
	op.contEst = make([]float64, 0, nCandidates)
	op.contCnt = make([]float64, 0, nCandidates)
	for i, sh := range shards {
		cands := candidates[i]
		sh.ZoneStatsAll(cands, zoneCheck != nil, func(ci, count int, min, max []float64, hasNaN []bool) {
			cid := cands[ci]
			frac := 1.0
			if rangeSet != nil && !coverageContains(rangeSet, cid) {
				frac = partialCoverFraction
			}
			if zoneCheck != nil && min != nil {
				// Fraction is 0 exactly when the zone proves no record
				// can satisfy, so one interval walk serves both the prune
				// decision and the estimate.
				zf := zoneCheck.Fraction(min, max, hasNaN)
				if zf == 0 {
					pruned++
					return
				}
				frac *= zf
			}
			op.containers = append(op.containers, cid)
			op.contEst = append(op.contEst, float64(count)*frac)
			op.contCnt = append(op.contCnt, float64(count))
			estRows += float64(count) * frac
			scanRecords += float64(count)
		})
	}

	op.rangeSet = rangeSet
	op.buildMorsels(e.morselRows())
	op.info.Containers = nCandidates
	op.info.ZonePruned = pruned
	op.info.EstRows = estRows
	// Cost is estimated in bytes scanned: the kernel streams the encoded
	// bytes of just the columns it references (their raw footprint
	// discounted by the store's measured compression ratio).
	perRec := float64(op.plan.kernel.perRecBytes)
	if rangeSet != nil {
		perRec += float64(op.plan.kernel.regionBytes)
	}
	if enc, raw := st.ColBlkBytes(); raw > 0 {
		perRec *= float64(enc) / float64(raw)
	}
	op.info.EstCost = scanRecords * perRec
	switch {
	case rangeSet != nil && zoneCheck != nil:
		op.info.Access = "htm-index+zone"
	case rangeSet != nil:
		op.info.Access = "htm-index"
	case zoneCheck != nil:
		op.info.Access = "zone-scan"
	default:
		op.info.Access = "full-scan"
	}
	return op, nil
}

// coverageContains reports whether the coverage fully contains a container
// trixel (a partially overlapped container contributes fewer rows).
func coverageContains(rs *htm.RangeSet, cid htm.ID) bool {
	lo, hi := cid.RangeAtDepth(rs.Depth())
	if lo == htm.Invalid {
		return false
	}
	for _, r := range rs.Ranges() {
		if r.Lo <= lo && hi <= r.Hi {
			return true
		}
		if r.Lo > lo {
			break
		}
	}
	return false
}

// scanOp is the leaf operator: a container scan across the table's shard
// slices, with the planner-chosen candidate containers and access path
// baked in, gathered into one stream.
type scanOp struct {
	opBase
	e  *Engine
	cs *query.CompiledSelect
	st *store.Sharded
	// plan is the shared per-query scan state (hidden columns, result
	// width, compiled kernel), computed once at plan time and read by every
	// scan worker.
	plan     *scanPlan
	rangeSet *htm.RangeSet
	// containers are the kept candidate containers of every slice, one
	// slice after another. contEst/contCnt parallel them: the estimated
	// output rows and raw record count of each — the per-container geometry
	// the neighbor-join estimator integrates.
	containers []htm.ID
	contEst    []float64
	contCnt    []float64
	// morsels is the scan chunked into container runs of ~morselRows
	// records each, computed once at plan time.
	morsels [][]htm.ID
	// topN, when positive, is the LIMIT of the ORDER BY this scan feeds:
	// each worker keeps only its best topN rows (scan.go's topN) and emits
	// them when the job finishes.
	topN int
}

// describe adds the two scan facts computed only when EXPLAIN asks: the
// WHERE clause's zone bounds and the per-slice count of the containers the
// scan reads.
func (o *scanOp) describe() *OpNode {
	n := o.opBase.describe()
	n.Bounds = o.cs.Bounds.Strings(o.cs.Table)
	n.ContainersPerShard = make([]int, o.st.NumShards())
	for _, cid := range o.containers {
		n.ContainersPerShard[o.st.ShardFor(cid)]++
	}
	return n
}

// buildMorsels chunks the kept containers into runs of roughly target
// records, using the plan-time per-container record counts. A run may cross
// slices: workers read each container from its owning slice.
func (o *scanOp) buildMorsels(target int) {
	start, acc := 0, 0
	for k := range o.containers {
		// Container record counts are whole numbers stored as float64;
		// integer accumulation keeps the comparison NaN-free.
		acc += int(o.contCnt[k])
		if acc >= target {
			o.morsels = append(o.morsels, o.containers[start:k+1])
			start, acc = k+1, 0
		}
	}
	if start < len(o.containers) {
		o.morsels = append(o.morsels, o.containers[start:])
	}
}

// closedBatch is the shared pre-closed stream an empty scan returns: no
// goroutine, no per-query channel allocation.
var closedBatch = func() chan Batch {
	ch := make(chan Batch)
	close(ch)
	return ch
}()

// open gathers the whole scan through one bounded MPSC stream — the
// order-free ASAP path: every pool worker pushes into the same channel.
func (o *scanOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	if len(o.morsels) == 0 {
		return o.instrument(ctx, rows, closedBatch)
	}
	j := o.newJob(ctx, rows, scanStream)
	j.out = make(chan Batch, 2+2*o.e.getPool().size)
	j.dispatch()
	return o.instrument(ctx, rows, j.out)
}

// openFold is the aggregate pushdown of the scan's own aggregate
// (cs.Agg): the pool folds each container into an aggregate partial and
// combines them in container-ID order, so the result is bit-identical
// across worker and shard counts.
func (o *scanOp) openFold(ctx context.Context, rows *Rows) <-chan Batch {
	j := o.newJob(ctx, rows, scanFold)
	j.folds = make([]aggPartial, len(o.containers))
	j.out = make(chan Batch, 1)
	j.dispatch()
	return j.out
}

// setOp executes one set operation over its children's streams.
type setOp struct {
	opBase
	e           *Engine
	op          query.SetOp
	left, right Operator
}

// open starts the set operation. The deferred child (INTERSECT's right,
// MINUS's left) is opened lazily by the run stage once the drained child
// completed: an opened scan's morsels queue on the shared pool
// immediately, and units blocked emitting into an unconsumed stream would
// occupy the workers the draining side needs.
func (o *setOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	var out <-chan Batch
	switch o.op {
	case query.OpUnion:
		out = o.e.runUnion(ctx, o.left.open(ctx, rows), o.right.open(ctx, rows), rows)
	case query.OpIntersect:
		out = o.e.runIntersect(ctx, o.left.open(ctx, rows), func() <-chan Batch { return o.right.open(ctx, rows) }, rows)
	case query.OpMinus:
		out = o.e.runMinus(ctx, func() <-chan Batch { return o.left.open(ctx, rows) }, o.right.open(ctx, rows), rows)
	default:
		ch := make(chan Batch)
		close(ch)
		rows.setErr(fmt.Errorf("qe: unknown set operation %v", o.op))
		out = ch
	}
	return o.instrument(ctx, rows, out)
}

// sortOp is ORDER BY: it drains its input's one stream — a scan's gathered
// morsels (each worker's top-N heap under a LIMIT) or a join's pairs — and
// emits it sorted (runSort).
type sortOp struct {
	opBase
	e      *Engine
	keyIdx int
	desc   bool
	in     Operator
}

func (e *Engine) newSortOp(keyIdx int, orderBy string, desc bool, in Operator, est, cost float64, analyze bool) *sortOp {
	op := &sortOp{e: e, keyIdx: keyIdx, desc: desc, in: in}
	op.opBase = opBase{
		info:     OpNode{Op: "sort", OrderBy: orderBy, Desc: desc, EstRows: est, EstCost: cost},
		stats:    newStats(analyze),
		children: []Operator{in},
	}
	return op
}

func (o *sortOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	return o.instrument(ctx, rows, o.e.runSort(ctx, o.keyIdx, o.desc, o.in.open(ctx, rows), rows))
}

// aggOp combines per-container partial aggregates (over a scan, pushed
// onto the morsel pool) or folds a single stream (over a join) into the
// one-row result.
type aggOp struct {
	opBase
	e   *Engine
	agg query.AggFunc
	in  Operator
}

func (e *Engine) newAggOp(agg query.AggFunc, in Operator, cost float64, analyze bool) *aggOp {
	op := &aggOp{e: e, agg: agg, in: in}
	op.opBase = opBase{
		info:     OpNode{Op: "aggregate", Agg: agg.String(), EstRows: 1, EstCost: cost},
		stats:    newStats(analyze),
		children: []Operator{in},
	}
	return op
}

func (o *aggOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	if sc, ok := o.in.(*scanOp); ok {
		// Aggregate pushdown: the pool folds per container and combines in
		// container order — no row stream to gather at all.
		return o.instrument(ctx, rows, sc.openFold(ctx, rows))
	}
	return o.instrument(ctx, rows, o.e.runAggregate(ctx, o.agg, o.in.open(ctx, rows), rows))
}

// limitOp caps the stream at n rows.
type limitOp struct {
	opBase
	e  *Engine
	n  int
	in Operator
}

func (e *Engine) newLimitOp(n int, in Operator, est, cost float64, analyze bool) *limitOp {
	op := &limitOp{e: e, n: n, in: in}
	op.opBase = opBase{
		info:     OpNode{Op: "limit", Limit: n, EstRows: min(est, float64(n)), EstCost: cost},
		stats:    newStats(analyze),
		children: []Operator{in},
	}
	return op
}

func (o *limitOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	return o.instrument(ctx, rows, o.e.runLimit(ctx, o.n, o.in.open(ctx, rows), rows))
}

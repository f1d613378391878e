// Physical operators: the Volcano-style batch-iterator layer of the
// planner split. The optimizer (plan.go) compiles a prepared statement into
// a tree of Operators; each operator's open starts its goroutines and
// returns its output stream, so the tree executes exactly like the paper's
// QET — every node running concurrently, batches flowing upward as soon as
// they are produced.
//
// Every operator carries an OpNode description (kind, chosen access path,
// cost and cardinality estimates) and, under EXPLAIN ANALYZE, an opStats
// block whose counters the operator updates while running — estimated
// versus actual rows side by side in the same tree.
package qe

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpActual is the measured side of EXPLAIN ANALYZE: what one physical
// operator actually did.
type OpActual struct {
	// RowsIn counts rows the operator consumed: records examined for
	// scans, child output rows for everything else.
	RowsIn int64 `json:"rows_in"`
	// RowsOut counts rows the operator emitted.
	RowsOut int64 `json:"rows_out"`
	// ElapsedMs is the wall time from the operator opening to its output
	// stream closing (operators run concurrently, so times overlap).
	ElapsedMs float64 `json:"elapsed_ms"`
	// BlocksSkipped counts containers a scan's kernel dismissed from block
	// headers alone (constant/dictionary/frame-of-reference key bounds that
	// cannot intersect the predicate) — no codes unpacked, no records read.
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
	// BytesDecoded is the encoded column-block bytes the kernel actually
	// materialized into key vectors — the measured side of the planner's
	// bytes-scanned cost estimate.
	BytesDecoded int64 `json:"bytes_decoded,omitempty"`
	// Workers counts the workers that touched this operator: scan workers
	// for a leaf, build partitions for a parallel hash build, probe
	// goroutines or merged zone ranges for a neighbor join.
	Workers int64 `json:"workers,omitempty"`
	// Morsels is the number of container-run work units a leaf scan was
	// chunked into.
	Morsels int64 `json:"morsels,omitempty"`
	// Steals is always 0: a scan's workers claim morsels from one shared
	// counter, so no morsel is taken from another worker's queue. The
	// field stays because the benchmark's trace still reads it.
	Steals int64 `json:"steals,omitempty"`
}

// OpNode is one node of the physical plan: the operator, its chosen access
// path, the optimizer's estimates, and (after EXPLAIN ANALYZE) the actuals.
type OpNode struct {
	// Op names the operator: scan, hash-join, neighbor-join, sort,
	// aggregate, limit, union, intersect, minus.
	Op    string `json:"op"`
	Table string `json:"table,omitempty"`
	// Access is the chosen access path of a scan: "htm-index",
	// "htm-index+zone", "zone-scan", "full-scan", or "empty" (provably
	// false predicate).
	Access string `json:"access,omitempty"`
	Filter string `json:"filter,omitempty"`
	// On is the join condition; BuildSide reports which input a join
	// materializes ("left" or "right" — the smaller estimate), or "self"
	// for a neighbor self-join whose one shared input is both sides.
	On           string  `json:"on,omitempty"`
	BuildSide    string  `json:"build_side,omitempty"`
	RadiusArcmin float64 `json:"radius_arcmin,omitempty"`
	// ZoneHeightArcmin is the declination height of the neighbor join's
	// zones: the radius, widened only when the estimated build side has
	// fewer rows than the sky has zones of that height. The join recomputes
	// it from the rows it actually builds.
	ZoneHeightArcmin float64 `json:"zone_height_arcmin,omitempty"`
	Agg              string  `json:"agg,omitempty"`
	// OrderBy and Desc are a sort's key and direction. Limit caps a limit
	// node's rows; on a scan, with OrderBy and Desc, it marks the top-N
	// pushdown (each worker keeps only its best Limit rows).
	OrderBy string `json:"order_by,omitempty"`
	Desc    bool   `json:"desc,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	// Shards is a scan's scatter width; Containers its candidate container
	// count after coverage pruning, ZonePruned how many of those the zone
	// maps excluded. ContainersPerShard counts the containers the scan reads
	// on each slice, in shard order: it sums to Containers - ZonePruned.
	Shards             int   `json:"shards,omitempty"`
	Containers         int   `json:"containers,omitempty"`
	ZonePruned         int   `json:"zone_pruned,omitempty"`
	ContainersPerShard []int `json:"containers_per_shard,omitempty"`
	// Bounds lists the per-attribute value intervals a scan's WHERE yields
	// ("r ∈ [-Inf, 18)"), which the zone maps prune containers with;
	// "never (...)" marks a provably empty predicate.
	Bounds []string `json:"bounds,omitempty"`
	// CoverDepth is the HTM depth a spatial scan's region was covered to:
	// Engine.CoverDepth when set, otherwise chosen from the store's record
	// density.
	CoverDepth int `json:"cover_depth,omitempty"`
	// Kernel names how a scan's column kernel evaluates records: "vector"
	// (key-range tests are the whole predicate) or "vector+pred" (the row
	// predicate re-checks the survivors of any key-range tests).
	Kernel string `json:"kernel,omitempty"`
	// EstRows is the optimizer's output-cardinality estimate; EstCost its
	// cost estimate in bytes scanned (the encoded column-block bytes of the
	// columns a scan's kernel references).
	EstRows float64 `json:"est_rows"`
	EstCost float64 `json:"est_cost"`
	// Actual carries the measured counters after EXPLAIN ANALYZE.
	Actual   *OpActual `json:"actual,omitempty"`
	Children []*OpNode `json:"children,omitempty"`
}

// opStats is the live counter block behind OpActual.
type opStats struct {
	rowsIn        atomic.Int64
	rowsOut       atomic.Int64
	blocksSkipped atomic.Int64
	bytesDecoded  atomic.Int64
	workers       atomic.Int64
	morsels       atomic.Int64
	startNs       atomic.Int64
	endNs         atomic.Int64
}

// markStart stamps the operator's open time (first caller wins — the scan's
// dispatch and its stream's instrumentation both stamp it).
func (s *opStats) markStart() {
	s.startNs.CompareAndSwap(0, time.Now().UnixNano())
}

// markEnd stamps stream close (last caller wins).
func (s *opStats) markEnd() {
	s.endNs.Store(time.Now().UnixNano())
}

// Operator is the physical-operator interface. open launches the
// operator's goroutines and returns its output stream; errors surface
// through rows like every other tree failure. describe snapshots the
// operator subtree, including actual counters when instrumented; node is
// the operator's own plan-time description, which the planner reads for
// its children's estimates without copying their subtrees.
type Operator interface {
	open(ctx context.Context, rows *Rows) <-chan Batch
	describe() *OpNode
	node() *OpNode
}

// opBase carries the description, instrumentation, and children shared by
// every operator.
type opBase struct {
	info     OpNode
	stats    *opStats // nil when not running under ANALYZE
	children []Operator
}

func (b *opBase) node() *OpNode { return &b.info }

// describe renders the operator subtree, attaching actuals when the
// operator ran instrumented. RowsIn defaults to the children's combined
// output when the operator did not count its own input (scans do).
func (b *opBase) describe() *OpNode {
	n := b.info
	n.Children = nil
	var childOut int64
	for _, c := range b.children {
		cn := c.describe()
		if cn.Actual != nil {
			childOut += cn.Actual.RowsOut
		}
		n.Children = append(n.Children, cn)
	}
	if b.stats != nil && b.stats.startNs.Load() > 0 {
		act := &OpActual{
			RowsIn:        b.stats.rowsIn.Load(),
			RowsOut:       b.stats.rowsOut.Load(),
			BlocksSkipped: b.stats.blocksSkipped.Load(),
			BytesDecoded:  b.stats.bytesDecoded.Load(),
			Workers:       b.stats.workers.Load(),
			Morsels:       b.stats.morsels.Load(),
		}
		if act.RowsIn == 0 {
			act.RowsIn = childOut
		}
		if end := b.stats.endNs.Load(); end > 0 {
			act.ElapsedMs = float64(end-b.stats.startNs.Load()) / 1e6
		}
		n.Actual = act
	}
	return &n
}

// instrument wraps an output stream with row counting when the operator
// runs under ANALYZE; otherwise the stream passes through untouched. The
// forward goes through Rows.send like every producer: once the context is
// done it returns without draining in, whose producer sees the same done
// context.
func (b *opBase) instrument(ctx context.Context, rows *Rows, in <-chan Batch) <-chan Batch {
	if b.stats == nil {
		return in
	}
	b.stats.markStart()
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		defer b.stats.markEnd()
		for bt := range in {
			b.stats.rowsOut.Add(int64(len(bt)))
			if !rows.send(ctx, out, bt) {
				return
			}
		}
	}()
	return out
}

// renderOpNode writes one plan line per operator, indented by depth.
func renderOpNode(b *strings.Builder, n *OpNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(strings.ToUpper(n.Op))
	if n.Table != "" {
		fmt.Fprintf(b, " %s", n.Table)
	}
	if n.Access != "" {
		fmt.Fprintf(b, " VIA %s", n.Access)
	}
	if n.On != "" {
		fmt.Fprintf(b, " ON %s", n.On)
	}
	if n.BuildSide != "" {
		fmt.Fprintf(b, " BUILD %s", n.BuildSide)
	}
	if n.ZoneHeightArcmin > 0 {
		fmt.Fprintf(b, " ZONE %.4g′", n.ZoneHeightArcmin)
	}
	if n.CoverDepth > 0 {
		fmt.Fprintf(b, " COVER %d", n.CoverDepth)
	}
	if n.Filter != "" {
		fmt.Fprintf(b, " WHERE %s", n.Filter)
	}
	if len(n.Bounds) > 0 {
		fmt.Fprintf(b, " ZONES [%s]", strings.Join(n.Bounds, "; "))
	}
	if n.Agg != "" {
		fmt.Fprintf(b, " %s", strings.ToUpper(n.Agg))
	}
	if n.Limit > 0 && n.Op != "limit" {
		// A scan's top-N pushdown: TOP <n> BY <key>.
		fmt.Fprintf(b, " TOP %d", n.Limit)
	}
	if n.OrderBy != "" {
		fmt.Fprintf(b, " BY %s", n.OrderBy)
		if n.Desc {
			b.WriteString(" DESC")
		}
	}
	if n.Limit > 0 && n.Op == "limit" {
		fmt.Fprintf(b, " %d", n.Limit)
	}
	if n.Shards > 0 {
		fmt.Fprintf(b, " [shards=%d containers=%d zone_pruned=%d", n.Shards, n.Containers, n.ZonePruned)
		if n.Shards > 1 {
			fmt.Fprintf(b, " per_shard=%v", n.ContainersPerShard)
		}
		b.WriteByte(']')
	}
	if n.Kernel != "" {
		fmt.Fprintf(b, " KERNEL %s", n.Kernel)
	}
	fmt.Fprintf(b, " (est_rows=%.0f est_cost=%.0f", n.EstRows, n.EstCost)
	if n.Actual != nil {
		fmt.Fprintf(b, " actual_rows=%d rows_in=%d elapsed=%.2fms",
			n.Actual.RowsOut, n.Actual.RowsIn, n.Actual.ElapsedMs)
		if n.Actual.BlocksSkipped > 0 || n.Actual.BytesDecoded > 0 {
			fmt.Fprintf(b, " blocks_skipped=%d bytes_decoded=%d",
				n.Actual.BlocksSkipped, n.Actual.BytesDecoded)
		}
		if n.Actual.Morsels > 0 {
			fmt.Fprintf(b, " workers=%d morsels=%d", n.Actual.Workers, n.Actual.Morsels)
		} else if n.Actual.Workers > 0 {
			fmt.Fprintf(b, " workers=%d", n.Actual.Workers)
		}
	}
	b.WriteString(")\n")
	for _, c := range n.Children {
		renderOpNode(b, c, depth+1)
	}
}

// The two join operators of the physical plan:
//
//   - hashJoinOp executes ON a.col = b.col as a classic hash join: the
//     build side (chosen by the optimizer as the smaller estimated input)
//     is drained into a hash table, then the probe side streams through it.
//     ON objid = objid joins key on the exact 64-bit object identifiers;
//     general numeric keys hash their float64 values, with NaN keys dropped
//     from both sides (NaN equals nothing, so they can never match).
//
//   - neighborJoinOp executes FROM NEIGHBORS(a, b, radius) as a zones join
//     (hashm.Zones, the zones algorithm of Gray, Nieto-Santisteban and
//     Szalay): the build side (smaller estimate) is drained once, cut into
//     declination zones of about the radius's height and sorted by ra within
//     each zone; the probe side then streams through the zones on Workers
//     goroutines, pairs flowing out as probe batches arrive, without
//     materializing the probe input.
//
// Both operators read each side as the one gathered stream of its leaf
// scan. The scans' morsels already run in parallel on each scan's workers,
// so neither join needs to know how the stores are sharded.
package qe

import (
	"context"
	"math"
	"sync"

	"sdss/internal/hashm"
	"sdss/internal/htm"
	"sdss/internal/query"
	"sdss/internal/sphere"
	"sdss/internal/store"
)

// planJoin plans a two-table leaf: both side scans (each with its own
// cost-based access path), the join operator with its build side chosen by
// estimated cardinality, and the statement's aggregate / sort / limit
// wrappers.
func (e *Engine) planJoin(cj *query.CompiledJoin, analyze bool) (Operator, error) {
	left, err := e.planLeaf(cj.Left, analyze)
	if err != nil {
		return nil, err
	}
	right, err := e.planLeaf(cj.Right, analyze)
	if err != nil {
		return nil, err
	}
	estL, estR := left.info.EstRows, right.info.EstRows
	cost := left.info.EstCost + right.info.EstCost

	var op Operator
	switch cj.Kind {
	case query.JoinInner:
		// Build on the smaller estimated input, probe with the larger.
		//lint:skylint-ignore nansafe cost estimates, not attribute values; either build side is correct
		buildLeft := estL <= estR
		side := "right"
		if buildLeft {
			side = "left"
		}
		est := math.Min(estL, estR)
		j := &hashJoinOp{e: e, cj: cj, buildLeft: buildLeft, left: left, right: right}
		j.opBase = opBase{
			info: OpNode{
				Op:        "hash-join",
				On:        cj.On,
				BuildSide: side,
				Filter:    cj.ResidualStr,
				EstRows:   est,
				EstCost:   cost + estL + estR,
			},
			stats:    newStats(analyze),
			children: []Operator{left, right},
		}
		op = j
	case query.JoinNeighbors:
		// Build the zones on the smaller estimated input, stream the larger
		// through them.
		//lint:skylint-ignore nansafe cost estimates, not attribute values; either build side is correct
		buildLeft := estL <= estR
		side := "right"
		if buildLeft {
			side = "left"
		}
		est := e.neighborEstRows(cj, left, right)
		j := &neighborJoinOp{e: e, cj: cj, buildLeft: buildLeft, left: left, right: right}
		j.opBase = opBase{
			info: OpNode{
				Op:               "neighbor-join",
				On:               cj.On,
				RadiusArcmin:     cj.Radius / sphere.Arcmin,
				BuildSide:        side,
				ZoneHeightArcmin: hashm.ZoneHeight(cj.Radius, int(min(estL, estR, math.MaxInt32))) / sphere.Arcmin,
				Filter:           cj.ResidualStr,
				EstRows:          est,
				EstCost:          cost + estL + estR + est,
			},
			stats:    newStats(analyze),
			children: []Operator{left, right},
		}
		op = j
	}

	est := op.node().EstRows
	switch {
	case cj.Agg != query.AggNone:
		op = e.newAggOp(cj.Agg, op, est, analyze)
	case cj.OrderRef >= 0:
		orderBy := ""
		if cj.Source != nil {
			orderBy = cj.Source.OrderBy
		}
		op = e.newSortOp(cj.OrderRef, orderBy, cj.Desc, op, est, est, analyze)
		if cj.Limit > 0 {
			op = e.newLimitOp(cj.Limit, op, est, est, analyze)
		}
	case cj.Limit > 0:
		op = e.newLimitOp(cj.Limit, op, est, est, analyze)
	}
	return op, nil
}

// neighborEstRows estimates the neighbor join's output cardinality from
// pair density over the covered area. For every container both sides keep,
// the store's fine occupancy histograms (PairStats, Σ k² over cells no
// smaller than the pair diameter) give the clustering-aware pair mass:
//
//	pairs ≈ √(Σk²_L · Σk²_R) · selL · selR · capArea / cellArea
//
// with capArea = 2π(1−cos r) the spherical cap a radius subtends and
// selL/selR the sides' per-container predicate selectivities. A same-table
// join subtracts the identity pairs (each shared object pairs with itself
// at distance zero) before scaling, since the executor excludes them. When
// histograms are unavailable (mismatched container depths, absent
// containers) the contribution
// falls back to uniform scatter within the container — still footprint-
// aware, never a hard-coded constant. The exact-ID residual selectivity
// (WHERE a.objid < b.objid keeps one orientation per pair) scales the total.
func (e *Engine) neighborEstRows(cj *query.CompiledJoin, left, right *scanOp) float64 {
	radius := cj.Radius
	capArea := 2 * math.Pi * (1 - math.Cos(radius))
	cd := left.st.ContainerDepth()
	sameTable := cj.Left.Table == cj.Right.Table

	// Relative histogram depth: the deepest recorded level whose cells are
	// still at least a pair diameter across — finer cells would clip real
	// pairs out of the density estimate.
	rel := 0
	//lint:skylint-ignore nansafe histogram-depth heuristic; radius is validated finite and TrixelAngle is a positive constant per depth
	for rel < store.PairRelDepth && htm.TrixelAngle(cd+rel+1) >= 2*radius {
		rel++
	}

	type contEst struct{ est, cnt float64 }
	rightByCid := make(map[htm.ID]contEst, len(right.containers))
	for k, cid := range right.containers {
		rightByCid[cid] = contEst{right.contEst[k], right.contCnt[k]}
	}

	var est float64
	depthsMatch := right.st.ContainerDepth() == cd
	for k, cid := range left.containers {
		rc, ok := rightByCid[cid]
		if !ok {
			continue
		}
		le, lc := left.contEst[k], left.contCnt[k]
		if lc <= 0 || rc.cnt <= 0 {
			continue
		}
		if depthsMatch {
			nL, qL, okL := left.st.PairStats(cid, rel)
			nR, qR, okR := right.st.PairStats(cid, rel)
			if okL && okR && nL > 0 && nR > 0 {
				crossQ := math.Sqrt(qL * qR)
				if sameTable {
					crossQ -= math.Min(float64(nL), float64(nR))
				}
				if crossQ > 0 {
					est += crossQ * (le / lc) * (rc.est / rc.cnt) * capArea / htm.TrixelArea(cd+rel)
				}
				continue
			}
		}
		est += le * rc.est * capArea / htm.TrixelArea(cd)
	}
	return est * cj.IDPredSel
}

// pairEmitter assembles joined output rows into batches: the shared tail of
// both join operators. Not safe for concurrent use: the hash join has one,
// each neighbor-join probe goroutine its own.
type pairEmitter struct {
	e     *Engine
	cj    *query.CompiledJoin
	rows  *Rows
	out   chan Batch
	batch Batch
	vals  []float64
	// lv/rv hold the current candidate pair for the residual getter.
	lv, rv []float64
	getter query.Getter
}

func newPairEmitter(e *Engine, cj *query.CompiledJoin, rows *Rows, out chan Batch) *pairEmitter {
	p := &pairEmitter{e: e, cj: cj, rows: rows, out: out}
	p.fresh()
	p.getter = func(id query.AttrID) float64 {
		side, attr := query.DecodeSideAttr(id)
		if side == 1 {
			return p.rv[p.cj.RightAttrIdx[attr]]
		}
		return p.lv[p.cj.LeftAttrIdx[attr]]
	}
	return p
}

// fresh starts a new output batch and the value array its rows are carved
// from; the previous ones went downstream with the flushed batch.
func (p *pairEmitter) fresh() {
	p.batch = make(Batch, 0, p.e.batchSize())
	if w := len(p.cj.Out); w > 0 {
		p.vals = make([]float64, 0, p.e.batchSize()*w)
	}
}

// emit appends one (left, right) pair if it passes the residual predicates
// (the exact-ID comparison first — 64-bit identifiers round through the
// float path — then the compiled expression), flushing full batches. It
// reports false when the context fired.
func (p *pairEmitter) emit(ctx context.Context, left, right *Result) bool {
	if p.cj.IDPred != nil && !p.cj.IDPred(uint64(left.ObjID), uint64(right.ObjID)) {
		return true
	}
	p.lv, p.rv = left.Values, right.Values
	if p.cj.Residual != nil && !p.cj.Residual(p.getter) {
		return true
	}
	res := Result{ObjID: left.ObjID}
	if w := len(p.cj.Out); w > 0 {
		start := len(p.vals)
		for _, ref := range p.cj.Out {
			if ref.Side == 1 {
				p.vals = append(p.vals, right.Values[ref.Idx])
			} else {
				p.vals = append(p.vals, left.Values[ref.Idx])
			}
		}
		res.Values = p.vals[start:len(p.vals):len(p.vals)]
	}
	p.batch = append(p.batch, res)
	if len(p.batch) >= p.e.batchSize() {
		return p.flush(ctx)
	}
	return true
}

func (p *pairEmitter) flush(ctx context.Context) bool {
	if len(p.batch) == 0 {
		return true
	}
	if !p.rows.send(ctx, p.out, p.batch) {
		return false
	}
	p.fresh()
	return true
}

// drainCollect drains a stream into one slice. It reports false when the
// context fired mid-drain: whatever arrived is not the whole input.
func drainCollect(ctx context.Context, in <-chan Batch, rows *Rows) ([]Result, bool) {
	var all []Result
	for b := range in {
		all = append(all, b...)
	}
	return all, !rows.stop(ctx)
}

// hashJoinOp executes the equi-join.
type hashJoinOp struct {
	opBase
	e           *Engine
	cj          *query.CompiledJoin
	buildLeft   bool
	left, right Operator
}

// floatKey normalizes a float64 join key for hashing: NaN keys are
// unusable (ok=false — NaN matches nothing under SQL equality) and -0
// folds onto +0 so the hash agrees with ==.
func floatKey(v float64) (uint64, bool) {
	if math.IsNaN(v) {
		return 0, false
	}
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v), true
}

// parallelBuildRows is the build-side row count below which the hash table
// builds single-threaded: partitioning smaller inputs costs more than the
// parallel map builds recover.
const parallelBuildRows = 8192

// mix64 is the splitmix64 finalizer: the partition selector over join
// keys, so partitions stay balanced even for sequential object IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashTable is the hash join's build result: build-row indices keyed by
// join key, split into hash partitions built in parallel (runParallel).
type hashTable struct {
	mask  uint64
	parts []map[uint64][]int32
}

func (t *hashTable) lookup(key uint64) []int32 {
	return t.parts[mix64(key)&t.mask][key]
}

// buildHashTable builds the join table from the drained build side. Large
// inputs are partitioned by mixed key hash in one sequential pass, then
// the partitions' maps build in parallel (runParallel); the per-key match
// lists keep ascending build-row order either way, so probe output is
// identical to the single-map build. NaN keys are dropped (never matched).
func (e *Engine) buildHashTable(ctx context.Context, built []Result, key func(int) (uint64, bool)) *hashTable {
	nparts := 1
	if len(built) >= parallelBuildRows {
		for w := min(e.workers(), 16); nparts < w; {
			nparts <<= 1
		}
	}
	t := &hashTable{mask: uint64(nparts - 1), parts: make([]map[uint64][]int32, nparts)}
	if nparts == 1 {
		m := make(map[uint64][]int32, len(built))
		for i := range built {
			k, usable := key(i)
			if !usable {
				continue
			}
			m[k] = append(m[k], int32(i))
		}
		t.parts[0] = m
		return t
	}
	keys := make([]uint64, len(built))
	lists := make([][]int32, nparts)
	for i := range built {
		k, usable := key(i)
		if !usable {
			continue
		}
		keys[i] = k
		p := mix64(k) & t.mask
		lists[p] = append(lists[p], int32(i))
	}
	e.runParallel(ctx, nparts, func(p int) {
		m := make(map[uint64][]int32, len(lists[p]))
		for _, i := range lists[p] {
			m[keys[i]] = append(m[keys[i]], i)
		}
		t.parts[p] = m
	})
	return t
}

func (o *hashJoinOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		cj := o.cj
		buildOp, probeOp := o.right, o.left
		buildKey, probeKey := cj.RightKey, cj.LeftKey
		if o.buildLeft {
			buildOp, probeOp = o.left, o.right
			buildKey, probeKey = cj.LeftKey, cj.RightKey
		}

		// Drain the build child first — the node blocks on it exactly like
		// the paper's sort and intersection nodes block on theirs. The
		// probe side stays unopened until the table exists: opened, its
		// scan would run ahead into a stream nothing consumes yet.
		built, ok := drainCollect(ctx, buildOp.open(ctx, rows), rows)
		if !ok {
			return
		}
		buildKeyOf := func(i int) (uint64, bool) {
			if cj.KeyObjID {
				return uint64(built[i].ObjID), true
			}
			return floatKey(built[i].Values[buildKey])
		}
		ht := o.e.buildHashTable(ctx, built, buildKeyOf)
		if rows.stop(ctx) {
			return
		}
		if o.stats != nil {
			o.stats.workers.Store(int64(len(ht.parts)))
		}

		// Probe phase: stream the probe side through the table.
		probe := probeOp.open(ctx, rows)
		em := newPairEmitter(o.e, cj, rows, out)
		for b := range probe {
			for i := range b {
				var key uint64
				if cj.KeyObjID {
					key = uint64(b[i].ObjID)
				} else {
					k, usable := floatKey(b[i].Values[probeKey])
					if !usable {
						continue
					}
					key = k
				}
				matches := ht.lookup(key)
				if len(matches) == 0 {
					continue
				}
				for _, m := range matches {
					l, r := &b[i], &built[m]
					if o.buildLeft {
						l, r = &built[m], &b[i]
					}
					if !em.emit(ctx, l, r) {
						for range probe {
						}
						return
					}
				}
			}
		}
		em.flush(ctx)
	}()
	return o.instrument(ctx, rows, out)
}

// neighborJoinOp executes the spatial join on hashm's zones.
type neighborJoinOp struct {
	opBase
	e           *Engine
	cj          *query.CompiledJoin
	buildLeft   bool
	left, right Operator
}

// sidePos reads one row's Cartesian position from a side's projected
// columns. Rows without a finite position (a spectrum whose trixel failed
// to resolve) report ok=false and are skipped — they have no location to
// join on.
func sidePos(res *Result, pos [3]int) (sphere.Vec3, bool) {
	v := sphere.Vec3{X: res.Values[pos[0]], Y: res.Values[pos[1]], Z: res.Values[pos[2]]}
	if math.IsNaN(v.X) || math.IsNaN(v.Y) || math.IsNaN(v.Z) {
		return v, false
	}
	return v, true
}

func (o *neighborJoinOp) open(ctx context.Context, rows *Rows) <-chan Batch {
	out := make(chan Batch, 4)
	go func() {
		defer close(out)
		cj := o.cj
		buildOp, probeOp := o.right, o.left
		buildPos, probePos := cj.RightPos, cj.LeftPos
		if o.buildLeft {
			buildOp, probeOp = o.left, o.right
			buildPos, probePos = cj.LeftPos, cj.RightPos
		}

		// Build first: drain the build side's one stream, keeping its
		// batches, then lay the rows with a position out flat at their exact
		// count and zone them. The probe side stays unopened until the zones
		// exist: opened, its scan would run ahead into a stream nothing
		// consumes yet.
		var batches []Batch
		n := 0
		for b := range buildOp.open(ctx, rows) {
			batches = append(batches, b)
			n += len(b)
		}
		if rows.stop(ctx) {
			return
		}
		built := make([]Result, 0, n)
		items := make([]hashm.Item, 0, n)
		for _, b := range batches {
			for k := range b {
				if v, ok := sidePos(&b[k], buildPos); ok {
					items = append(items, hashm.Item{ID: b[k].ObjID, Pos: v, Row: int32(len(built))})
					built = append(built, b[k])
				}
			}
		}
		workers := o.e.workers()
		zones, err := hashm.NewZones(cj.Radius, items, workers, func(n int, fn func(int)) {
			o.e.runParallel(ctx, n, fn)
		})
		if err != nil {
			rows.setErr(err)
			return
		}
		if rows.stop(ctx) {
			return
		}
		if o.stats != nil {
			o.stats.workers.Store(int64(workers))
		}

		// Probe phase: workers goroutines read the probe stream, each
		// with its own emitter. Pairs flow out as probe batches arrive;
		// the probe side is never materialized.
		probe := probeOp.open(ctx, rows)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o.probe(ctx, rows, zones, built, probe, probePos, newPairEmitter(o.e, cj, rows, out))
				for range probe {
				}
			}()
		}
		wg.Wait()
	}()
	return o.instrument(ctx, rows, out)
}

// probe streams probe batches through the zones until the stream ends or
// the context fires, emitting every pair within the radius.
func (o *neighborJoinOp) probe(ctx context.Context, rows *Rows, zones *hashm.Zones, built []Result, probe <-chan Batch, pos [3]int, em *pairEmitter) {
	var matches []int32
	for b := range probe {
		if rows.stop(ctx) {
			return
		}
		for k := range b {
			v, ok := sidePos(&b[k], pos)
			if !ok {
				continue
			}
			matches = zones.Match(matches[:0], b[k].ObjID, v)
			for _, m := range matches {
				l, r := &built[m], &b[k]
				if !o.buildLeft {
					l, r = r, l
				}
				if !em.emit(ctx, l, r) {
					return
				}
			}
		}
	}
	em.flush(ctx)
}

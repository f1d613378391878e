package expt

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"sdss/internal/catalog"
	"sdss/internal/cluster"
	"sdss/internal/core"
	"sdss/internal/hashm"
	"sdss/internal/htm"
	"sdss/internal/load"
	"sdss/internal/qe"
	"sdss/internal/river"
	"sdss/internal/scan"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
	"sdss/internal/stats"
	"sdss/internal/store"
)

// perNodeRate is the paper's measured single-node disk bandwidth:
// "one node is capable of reading data at 150 MBps" [Hartman98].
const perNodeRate = 150e6

// ScanScaling measures the scan machine's aggregate bandwidth as nodes are
// added (the paper: 1 node = 150 MB/s, 20 nodes = 3 GB/s, full catalog
// every 2 minutes).
func ScanScaling(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E6", "scan machine scaling (paper: 150 MB/s/node, 3 GB/s at 20 nodes, 2 min full scan)")
	st := h.Archive.PhotoStore()
	dataBytes := float64(st.Bytes())
	tbl := stats.NewTable("Nodes", "Aggregate MB/s", "Speedup", "Scan time", "Extrapolated full-catalog scan")
	var base float64
	for _, nodes := range []int{1, 2, 4, 8, 16, cfg.nodes()} {
		fabric, err := cluster.New(nodes, perNodeRate)
		if err != nil {
			return err
		}
		m := scan.New(st, fabric)
		ctx, cancel := context.WithCancel(context.Background())
		m.Start(ctx)
		start := time.Now()
		tk := m.Submit(func(rec []byte) {})
		if err := tk.Wait(ctx); err != nil {
			cancel()
			return err
		}
		elapsed := time.Since(start)
		cancel()
		rate := dataBytes / elapsed.Seconds()
		if base == 0 {
			base = rate
		}
		fullBytes := dataBytes * cfg.ScaleFactor()
		fullScan := time.Duration(fullBytes / rate * float64(time.Second))
		tbl.AddRow(nodes, fmt.Sprintf("%.0f", rate/1e6),
			fmt.Sprintf("%.1f×", rate/base), elapsed.Round(time.Millisecond),
			fullScan.Round(time.Second))
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "catalog at this scale: %s over %d containers\n",
		stats.ByteSize(dataBytes), st.NumContainers())
	return nil
}

// TagVsFull compares the same popular-attribute search over the tag
// partition and the full photometric table (the paper: tags "occupy much
// less space, thus can be searched more than 10 times faster, if no other
// attributes are involved in the query"). The claim is about I/O volume, so
// the search runs on disk-rate-throttled scan machines — the regime the
// archive lives in ("given the amount of data, most queries will be I/O
// limited") — with the in-memory (CPU-bound) engine times alongside.
func TagVsFull(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E7", "tag objects vs full records (paper: >10× faster)")
	st := h.Archive.Stats()

	// I/O-bound: one full throttled sweep over each store.
	sweep := func(s *store.Sharded) (time.Duration, error) {
		fabric, err := cluster.New(4, perNodeRate)
		if err != nil {
			return 0, err
		}
		m := scan.New(s, fabric)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m.Start(ctx)
		start := time.Now()
		tk := m.Submit(func(rec []byte) {})
		if err := tk.Wait(ctx); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	fullIO, err := sweep(h.Archive.PhotoStore())
	if err != nil {
		return err
	}
	tagIO, err := sweep(h.Archive.TagStore())
	if err != nil {
		return err
	}

	// CPU-bound: the in-memory engine on the same predicate.
	ctx := context.Background()
	const pred = "WHERE r < 21 AND u - g > 0.8 AND class = 'GALAXY'"
	run := func(q string) (time.Duration, float64, error) {
		best := time.Duration(math.MaxInt64)
		var n float64
		for i := 0; i < 4; i++ { // first iteration warms
			start := time.Now()
			rows, err := h.Archive.Query(ctx, q)
			if err != nil {
				return 0, 0, err
			}
			res, err := rows.Collect()
			if err != nil {
				return 0, 0, err
			}
			if t := time.Since(start); i > 0 && t < best {
				best = t
			}
			n = res[0].Values[0]
		}
		return best, n, nil
	}
	tagT, tagN, err := run("SELECT COUNT(*) FROM tag " + pred)
	if err != nil {
		return err
	}
	fullT, fullN, err := run("SELECT COUNT(*) FROM photoobj " + pred)
	if err != nil {
		return err
	}
	if tagN != fullN {
		return fmt.Errorf("expt: tag and full scans disagree: %v vs %v", tagN, fullN)
	}

	tbl := stats.NewTable("Table", "Bytes", "I/O-bound sweep", "Speedup", "In-memory query", "Speedup")
	tbl.AddRow("full photoobj", stats.ByteSize(float64(st.PhotoBytes)),
		fullIO.Round(time.Millisecond), "1.0×", fullT.Round(time.Microsecond), "1.0×")
	tbl.AddRow("tag partition", stats.ByteSize(float64(st.TagBytes)),
		tagIO.Round(time.Millisecond), fmt.Sprintf("%.1f×", float64(fullIO)/float64(tagIO)),
		tagT.Round(time.Microsecond), fmt.Sprintf("%.1f×", float64(fullT)/float64(tagT)))
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "size ratio %.1f× drives the I/O-bound speedup; matching objects: %.0f\n",
		float64(st.PhotoBytes)/float64(st.TagBytes), fullN)
	return nil
}

// SampleDebugging measures the 1%-sample workflow: speedup and estimate
// accuracy (the paper: "combining partitioning and sampling converts a 2 TB
// data set into 2 gigabytes").
func SampleDebugging(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E8", "1% sample debugging (paper: 2 TB → 2 GB, ~100× lighter)")
	sampled, err := h.Archive.Sample(0.01)
	if err != nil {
		return err
	}
	ctx := context.Background()
	q := "SELECT COUNT(*) FROM photoobj WHERE r < 22 AND g - r > 0.4"
	timeCount := func(a *core.Archive) (time.Duration, float64, error) {
		start := time.Now()
		rows, err := a.Query(ctx, q)
		if err != nil {
			return 0, 0, err
		}
		res, err := rows.Collect()
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), res[0].Values[0], nil
	}
	if _, _, err := timeCount(h.Archive); err != nil { // warm
		return err
	}
	fullT, fullN, err := timeCount(h.Archive)
	if err != nil {
		return err
	}
	sampT, sampN, err := timeCount(sampled)
	if err != nil {
		return err
	}
	est := sampN * 100
	full := h.Archive.Stats()
	samp := sampled.Stats()
	tbl := stats.NewTable("Dataset", "Bytes", "Query time", "Count", "Estimate")
	tbl.AddRow("full archive", stats.ByteSize(float64(full.PhotoBytes)), fullT.Round(time.Microsecond),
		fmt.Sprintf("%.0f", fullN), "-")
	tbl.AddRow("1% sample", stats.ByteSize(float64(samp.PhotoBytes)), sampT.Round(time.Microsecond),
		fmt.Sprintf("%.0f", sampN), fmt.Sprintf("%.0f (err %.1f%%)", est, 100*math.Abs(est-fullN)/fullN))
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "byte shrinkage %.0f×; query speedup %.1f×\n",
		float64(full.PhotoBytes)/float64(max64(samp.PhotoBytes, 1)),
		float64(fullT)/float64(sampT))
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// HashMachineLens runs the gravitational-lens query on the hash machine and
// the naive all-pairs baseline (the paper: the hash machine can process the
// entire database in minutes; all-pairs cannot). Lens systems are planted
// in the synthetic sky so recovery is verifiable; a denser friends-of-
// friends radius exercises phase-2 worker scaling.
func HashMachineLens(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E9", "hash machine: lens query (≤10 arcsec pairs, identical colors)")
	tags, err := h.Archive.Tags()
	if err != nil {
		return err
	}
	// Plant lens systems: second images 2-6 arcsec away, equal colors.
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	nPlanted := 20
	nextID := catalog.ObjID(1) << 55
	for i := 0; i < nPlanted; i++ {
		base := tags[rng.Intn(len(tags))]
		img := base
		img.ObjID = nextID
		nextID++
		sep := (2 + 4*rng.Float64()) * sphere.Arcsec
		pos := base.Pos().Add(base.Pos().Orthogonal().Scale(sep)).Normalize()
		img.X, img.Y, img.Z = pos.X, pos.Y, pos.Z
		id, err := htm.Lookup(pos, catalog.IndexDepth)
		if err != nil {
			return err
		}
		img.HTMID = id
		dim := float32(0.5 + rng.Float64())
		for b := range img.Mag {
			img.Mag[b] += dim
		}
		tags = append(tags, img)
	}

	hcfg := hashm.Config{PairRadius: 10 * sphere.Arcsec}
	pred := hashm.ColorMatch(0.05)
	start := time.Now()
	buckets, err := hashm.Hash(tags, hcfg, nil)
	if err != nil {
		return err
	}
	hashT := time.Since(start)
	start = time.Now()
	pairs, err := hashm.Pairs(buckets, hcfg, pred)
	if err != nil {
		return err
	}
	pairT := time.Since(start)

	start = time.Now()
	naive := hashm.NaivePairs(tags, hcfg, nil, pred)
	naiveT := time.Since(start)
	if len(naive) != len(pairs) {
		return fmt.Errorf("expt: hash machine found %d pairs, naive %d", len(pairs), len(naive))
	}
	if len(pairs) < nPlanted {
		return fmt.Errorf("expt: only %d pairs found with %d planted", len(pairs), nPlanted)
	}

	tbl := stats.NewTable("Method", "Time", "Pairs", "Speedup")
	tbl.AddRow("naive all-pairs", naiveT.Round(time.Millisecond), len(naive), "1.0×")
	tbl.AddRow("hash machine (hash+compare)", (hashT + pairT).Round(time.Millisecond), len(pairs),
		fmt.Sprintf("%.0f×", float64(naiveT)/float64(hashT+pairT)))
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "planted lens systems recovered: %d/%d; %d objects, %d buckets\n",
		nPlanted, nPlanted, len(tags), len(buckets))

	// Phase-2 worker scaling on a denser workload (friends-of-friends
	// linking length of 2 arcmin gives buckets enough pairwise work to
	// amortize the fan-out).
	dense := hashm.Config{BucketDepth: 6, PairRadius: 2 * sphere.Arcmin}
	denseBuckets, err := hashm.Hash(tags, dense, nil)
	if err != nil {
		return err
	}
	tbl2 := stats.NewTable("Workers", "Compare time (2' radius)", "Speedup")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		c := dense
		c.Workers = workers
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := hashm.Pairs(denseBuckets, c, nil); err != nil {
				return err
			}
			if t := time.Since(start); t < best {
				best = t
			}
		}
		if base == 0 {
			base = best
		}
		tbl2.AddRow(workers, best.Round(time.Microsecond), fmt.Sprintf("%.1f×", float64(base)/float64(best)))
	}
	fmt.Fprint(w, tbl2)
	return nil
}

// RiverSort measures the sorting-network river on full photometric records
// (the paper: current systems sort ~100 MB/s on commodity hardware). The
// records flow through the real catalog codec: runs spill to disk encoded,
// merge back decoded.
func RiverSort(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E10", "river sorting network (paper: ~100 MB/s commodity sort)")
	xs := h.Photo
	n := len(xs)
	bytes := float64(n * catalog.PhotoObjSize)
	spill := func() *river.SpillConfig[catalog.PhotoObj] {
		return &river.SpillConfig[catalog.PhotoObj]{
			RunSize: 1 << 13,
			Encode: func(v catalog.PhotoObj, buf []byte) []byte {
				return v.AppendTo(buf)
			},
			Decode: func(rec []byte) (catalog.PhotoObj, error) {
				var p catalog.PhotoObj
				err := p.Decode(rec)
				return p, err
			},
		}
	}
	// Sort by r magnitude (brightest first is the astronomer's ordering).
	key := func(p catalog.PhotoObj) float64 { return float64(p.Mag[catalog.R]) }
	less := func(a, b catalog.PhotoObj) bool { return a.Mag[catalog.R] < b.Mag[catalog.R] }
	tbl := stats.NewTable("Partitions", "Time", "MB/s", "Speedup")
	var base time.Duration
	for _, parts := range []int{1, 2, 4, 8} {
		start := time.Now()
		src := river.FromSlice(context.Background(), xs)
		// Magnitude cuts spread the counts distribution roughly evenly.
		cuts := make([]float64, parts-1)
		for i := range cuts {
			cuts[i] = 23 - 9*math.Pow(0.5, float64(i+1)) // 18.5, 20.75, ...
		}
		streams := river.RangePartition(src, key, cuts)
		sorted := make([]*river.Stream[catalog.PhotoObj], len(streams))
		for i, s := range streams {
			sorted[i] = river.Sort(s, less, spill())
		}
		// Range partitioning makes concatenation-in-cut-order a total
		// sort: drain the partitions concurrently, verify order locally,
		// and check the boundaries between partitions.
		counts := make([]int64, len(sorted))
		bounds := make([][2]float64, len(sorted))
		errs := make([]error, len(sorted))
		var wg sync.WaitGroup
		for i, s := range sorted {
			wg.Add(1)
			go func(i int, s *river.Stream[catalog.PhotoObj]) {
				defer wg.Done()
				prev := math.Inf(-1)
				first := true
				errs[i] = river.ForEach(s, func(v catalog.PhotoObj) error {
					k := key(v)
					if k < prev {
						return fmt.Errorf("partition %d out of order", i)
					}
					if first {
						bounds[i][0] = k
						first = false
					}
					prev = k
					counts[i]++
					return nil
				})
				bounds[i][1] = prev
			}(i, s)
		}
		wg.Wait()
		var total int64
		for i := range sorted {
			if errs[i] != nil {
				return errs[i]
			}
			total += counts[i]
			if i > 0 && counts[i] > 0 && counts[i-1] > 0 && bounds[i][0] < bounds[i-1][1] {
				return fmt.Errorf("expt: partition boundary violated between %d and %d", i-1, i)
			}
		}
		if total != int64(n) {
			return fmt.Errorf("expt: sort network lost elements: %d of %d", total, n)
		}
		t := time.Since(start)
		if base == 0 {
			base = t
		}
		tbl.AddRow(parts, t.Round(time.Millisecond), fmt.Sprintf("%.0f", bytes/t.Seconds()/1e6),
			fmt.Sprintf("%.1f×", float64(base)/float64(t)))
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "%d PhotoObj records (%s) through the real codec, spilled runs + merge\n",
		n, stats.ByteSize(bytes))
	return nil
}

// DataLoading compares the two-phase clustered load against record-at-a-
// time insertion (the paper: "touching each clustering unit at most once
// during a load", 20 GB arriving daily).
func DataLoading(cfg Config, w io.Writer) error {
	section(w, "E11", "data loading (paper: one touch per clustering unit, 20 GB/day)")
	ch, err := skygen.GenerateChunk(skygen.Default(cfg.Seed+7, cfg.Objects()), 0, 1)
	if err != nil {
		return err
	}
	clustered, err := load.NewTarget("", 0, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	cs, err := clustered.LoadChunk(ch)
	if err != nil {
		return err
	}
	clusteredT := time.Since(start)

	naive, err := load.NewTarget("", 0, 1)
	if err != nil {
		return err
	}
	start = time.Now()
	ns, err := naive.LoadUnclustered(ch)
	if err != nil {
		return err
	}
	naiveT := time.Since(start)

	tbl := stats.NewTable("Strategy", "Container touches", "Objects", "Time", "Rate")
	tbl.AddRow("two-phase clustered", clustered.Photo.Touches(), cs.PhotoObjects,
		clusteredT.Round(time.Millisecond), fmt.Sprintf("%.0f MB/s", cs.Rate()/1e6))
	tbl.AddRow("record-at-a-time", naive.Photo.Touches(), ns.PhotoObjects,
		naiveT.Round(time.Millisecond), fmt.Sprintf("%.0f MB/s", ns.Rate()/1e6))
	fmt.Fprint(w, tbl)
	day := 20e9 / cs.Rate() / 3600
	fmt.Fprintf(w, "touch reduction %.0f×; at the clustered rate, 20 GB/day loads in %.2f h\n",
		float64(naive.Photo.Touches())/float64(max64(clustered.Photo.Touches(), 1)), day)
	return nil
}

// CartesianVsTrig times the cone membership test in Cartesian form (three
// multiplies against cos r) versus spherical trigonometry (the paper:
// "testing linear combinations of the three Cartesian coordinates instead
// of complicated trigonometric expressions").
func CartesianVsTrig(cfg Config, w io.Writer) error {
	section(w, "E12", "Cartesian dot product vs trigonometric distance")
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	const n = 1 << 20
	ras := make([]float64, n)
	decs := make([]float64, n)
	vecs := make([]sphere.Vec3, n)
	for i := 0; i < n; i++ {
		ras[i] = rng.Float64() * 2 * math.Pi
		decs[i] = math.Asin(2*rng.Float64() - 1)
		vecs[i] = sphere.FromRADec(ras[i]/sphere.Deg, decs[i]/sphere.Deg)
	}
	center := sphere.FromRADec(180, 30)
	cRA, cDec := sphere.Radians(180), sphere.Radians(30)
	radius := 10 * sphere.Arcmin
	cosR := math.Cos(radius)

	start := time.Now()
	inCart := 0
	for i := 0; i < n; i++ {
		if vecs[i].X*center.X+vecs[i].Y*center.Y+vecs[i].Z*center.Z >= cosR {
			inCart++
		}
	}
	cartT := time.Since(start)

	start = time.Now()
	inTrig := 0
	for i := 0; i < n; i++ {
		if sphere.TrigDist(ras[i], decs[i], cRA, cDec) <= radius {
			inTrig++
		}
	}
	trigT := time.Since(start)
	if inCart != inTrig {
		return fmt.Errorf("expt: cone tests disagree: %d vs %d", inCart, inTrig)
	}
	tbl := stats.NewTable("Method", "ns/object", "Total", "Speedup")
	tbl.AddRow("haversine trigonometry", trigT.Nanoseconds()/n, trigT.Round(time.Microsecond), "1.0×")
	tbl.AddRow("Cartesian dot product", cartT.Nanoseconds()/n, cartT.Round(time.Microsecond),
		fmt.Sprintf("%.1f×", float64(trigT)/float64(cartT)))
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "%d points, %d in cone, identical answers\n", n, inCart)
	return nil
}

// ASAPFirstResult measures time-to-first-result with the ASAP push against
// a blocking execution (the paper: "the user starts seeing results almost
// immediately").
func ASAPFirstResult(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E13", "ASAP data push: time to first result")
	q := "SELECT objid, r FROM photoobj WHERE r < 23"
	engine := h.Archive.Engine()
	measure := func(blocking bool) (first, total time.Duration, n int, err error) {
		start := time.Now()
		rows, err := engine.ExecuteString(context.Background(), q)
		if err != nil {
			return 0, 0, 0, err
		}
		deliver := func(b qe.Batch) {
			if first == 0 && len(b) > 0 {
				first = time.Since(start)
			}
			n += len(b)
		}
		// The blocking arm drains the whole stream into memory before it
		// hands on its first batch, as a node that withholds results until
		// its input is complete would.
		var held []qe.Batch
		for b := range rows.C {
			if blocking {
				held = append(held, b)
			} else {
				deliver(b)
			}
		}
		for _, b := range held {
			deliver(b)
		}
		return first, time.Since(start), n, rows.Err()
	}
	if _, _, _, err := measure(false); err != nil { // warm
		return err
	}
	aFirst, aTotal, aN, err := measure(false)
	if err != nil {
		return err
	}
	bFirst, bTotal, bN, err := measure(true)
	if err != nil {
		return err
	}
	if aN != bN {
		return fmt.Errorf("expt: result counts differ: %d vs %d", aN, bN)
	}
	tbl := stats.NewTable("Mode", "First result", "Complete", "First/complete")
	tbl.AddRow("ASAP push", aFirst.Round(time.Microsecond), aTotal.Round(time.Microsecond),
		fmt.Sprintf("%.1f%%", 100*float64(aFirst)/float64(aTotal)))
	tbl.AddRow("blocking", bFirst.Round(time.Microsecond), bTotal.Round(time.Microsecond),
		fmt.Sprintf("%.1f%%", 100*float64(bFirst)/float64(bTotal)))
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "%d results; ASAP delivers first row %.0f× sooner\n",
		aN, float64(bFirst)/float64(max64(int64(aFirst), 1)))
	return nil
}

// IndexVsScanCrossover sweeps cone radii to find where the HTM index stops
// paying (the paper: "even with the best indexing schemes, some queries
// must scan the entire data set").
func IndexVsScanCrossover(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E14", "index lookup vs full scan: selectivity crossover")
	indexed := h.Archive.Engine()
	fullScan := &qe.Engine{
		Photo: h.Archive.PhotoStore(), Tag: h.Archive.TagStore(), Spec: h.Archive.SpecStore(),
		CoverDepth: indexed.CoverDepth, Workers: indexed.Workers, MorselRows: indexed.MorselRows,
		NoIndex: true,
	}
	ctx := context.Background()
	center := h.Photo[0]
	run := func(radiusArcmin float64, engine *qe.Engine) (time.Duration, float64, error) {
		q := fmt.Sprintf("SELECT COUNT(*) FROM photoobj WHERE CIRCLE(%v, %v, %g)",
			center.RA, center.Dec, radiusArcmin)
		best := time.Duration(math.MaxInt64)
		var count float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			rows, err := engine.ExecuteString(ctx, q)
			if err != nil {
				return 0, 0, err
			}
			res, err := rows.Collect()
			if err != nil {
				return 0, 0, err
			}
			if t := time.Since(start); t < best {
				best = t
			}
			count = res[0].Values[0]
		}
		return best, count, nil
	}
	tbl := stats.NewTable("Cone radius", "Selectivity", "Indexed", "Full scan", "Index wins")
	total := float64(len(h.Photo))
	for _, radius := range []float64{1, 5, 20, 60, 240, 1200, 5400} {
		idxT, n1, err := run(radius, indexed)
		if err != nil {
			return err
		}
		scanT, n2, err := run(radius, fullScan)
		if err != nil {
			return err
		}
		if n1 != n2 {
			return fmt.Errorf("expt: indexed and scan answers differ at %g arcmin", radius)
		}
		tbl.AddRow(fmt.Sprintf("%g arcmin", radius),
			fmt.Sprintf("%.3f%%", 100*n1/total),
			idxT.Round(time.Microsecond), scanT.Round(time.Microsecond),
			fmt.Sprintf("%v", idxT < scanT))
	}
	fmt.Fprint(w, tbl)
	return nil
}

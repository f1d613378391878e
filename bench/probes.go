package main

import (
	"encoding/binary"
	"errors"
	"runtime"
	"time"

	"sdss/internal/colblk"
	"sdss/internal/hashm"
	"sdss/internal/htm"
	"sdss/internal/load"
	"sdss/internal/qe"
	"sdss/internal/query"
	"sdss/internal/region"
	"sdss/internal/sphere"
	"sdss/internal/store"
)

// Layer probes: each times one layer's exported entry points directly, on
// the workload's own archive and statements, so a layer's cost is known
// without any other layer in the way. They run only in a traced run.

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink uint64

// probeParse times query.Parse over the workload's distinct statements.
func probeParse(stmts []string, m map[string]float64) error {
	var us []float64
	for _, q := range stmts {
		const reps = 5
		t := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := query.Parse(q); err != nil {
				return err
			}
		}
		us = append(us, float64(time.Since(t))/reps/1e3)
	}
	m["query.parse_us"] = median(us)
	return nil
}

// probeCover times region.Cover at the engine's cover depth over the
// statements' regions; a workload with no spatial statement is probed on
// 10′ circles around its first objects instead.
func probeCover(stmts []string, sv *survey, m map[string]float64) error {
	var regions []*region.Region
	for _, q := range stmts {
		if prep, err := query.PrepareString(q); err == nil && prep.Select != nil && prep.Select.Region != nil {
			regions = append(regions, prep.Select.Region)
		}
	}
	for i := 0; len(regions) < 32 && i < len(sv.photo); i++ {
		regions = append(regions, region.CircleRADec(sv.photo[i].RA, sv.photo[i].Dec, 10))
	}
	var us, ranges []float64
	for _, r := range regions {
		t := time.Now()
		cov, err := region.Cover(r, qe.DefaultCoverDepth)
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t))/1e3)
		ranges = append(ranges, float64(cov.RangeSet().Len()))
	}
	m["region.cover_us"] = median(us)
	m["region.cover_ranges"] = mean(ranges)
	return nil
}

// probeStore times the raw container walk (every record touched once: the
// floor under any scan) and the zone-map check.
func probeStore(stores []*store.Sharded, m map[string]float64) error {
	var rows int
	var sum uint64
	t := time.Now()
	for _, st := range stores {
		size, off := st.Options().RecordSize, st.Options().KeyOffset
		err := st.ScanContainers(func(_ htm.ID, data []byte, count int) error {
			for i := 0; i < count; i++ {
				sum += binary.LittleEndian.Uint64(data[i*size+off:])
			}
			rows += count
			return nil
		})
		if err != nil {
			return err
		}
	}
	m["store.scan_raw_ns_per_row"] = float64(time.Since(t)) / float64(max(rows, 1))
	probeSink += sum

	checks := 0
	t = time.Now()
	for _, st := range stores {
		for _, cid := range st.Containers() {
			if st.CheckZone(cid, func(_, _ []float64, _ []bool) bool { return true }) {
				checks++
			}
		}
	}
	m["store.zone_check_ns"] = float64(time.Since(t)) / float64(max(checks, 1))
	return nil
}

// probeColblk decodes every stored column of every tag slab, then encodes
// every tag container afresh.
func probeColblk(tag *store.Sharded, m map[string]float64) error {
	spec, size := tag.Options().Columns, tag.Options().RecordSize
	if spec == nil {
		return errors.New("tag store keeps no column blocks")
	}
	rd := colblk.NewReader()
	values := 0
	cids := tag.Containers()
	t := time.Now()
	for _, cid := range cids {
		_, _, slab := tag.ColumnData(cid)
		if slab == nil {
			continue
		}
		rd.Reset(slab)
		for ci := 0; ci < spec.NumCols(); ci++ {
			if spec.Col(ci).Kind == colblk.KNone {
				continue
			}
			keys := rd.Keys(ci)
			values += len(keys)
			if len(keys) > 0 {
				probeSink += keys[0]
			}
		}
	}
	m["colblk.decode_ns_per_value"] = float64(time.Since(t)) / float64(max(values, 1))

	rows, enc, raw := 0, 0, 0
	t = time.Now()
	for _, cid := range cids {
		data, count, _ := tag.ColumnData(cid)
		slab := spec.Encode(data, count, size, false)
		rows += count
		enc += slab.EncodedBytes()
		raw += slab.RawBytes()
	}
	m["colblk.encode_ns_per_row"] = float64(time.Since(t)) / float64(max(rows, 1))
	m["colblk.encoded_per_raw_byte"] = float64(enc) / float64(max(raw, 1))
	return nil
}

// probeHashm builds the spatial index the NEIGHBORS join builds (0.5′ pairs
// over every tag position) and probes it with every item.
func probeHashm(sv *survey, m map[string]float64) error {
	radius := 0.5 * sphere.Arcmin
	items := make([]hashm.Item, len(sv.photo))
	for i, p := range sv.photo {
		items[i] = hashm.Item{ID: p.ObjID, Key: p.HTMID, Pos: p.Pos(), Row: int32(i)}
	}
	t := time.Now()
	idx, err := hashm.NewSpatialIndex(radius, hashm.PartitionDepth(5, radius))
	if err != nil {
		return err
	}
	for _, it := range items {
		if err := idx.Insert(it); err != nil {
			return err
		}
	}
	idx.Finish(runtime.GOMAXPROCS(0))
	m["hashm.index_build_ms"] = float64(time.Since(t)) / 1e6

	pairs := 0
	t = time.Now()
	for _, it := range items {
		if _, err := idx.Probe(it, func(hashm.Item, float64) bool { pairs++; return true }); err != nil {
			return err
		}
	}
	m["hashm.probe_ns_per_item"] = float64(time.Since(t)) / float64(max(len(items), 1))
	m["hashm.pairs_per_probe"] = float64(pairs) / float64(max(len(items), 1))
	return nil
}

// probeLoadSide loads the survey into a memory-only target to time the
// store's bulk insert and its zone-map and column-block builds, which a
// disk load folds into LoadChunk and Flush.
func probeLoadSide(sv *survey, m map[string]float64) error {
	recs := make([]store.Record, len(sv.photo))
	for i, p := range sv.photo {
		recs[i] = store.Record{HTMID: p.HTMID, Data: p.AppendTo(nil)}
	}
	tgt, err := load.NewTarget("", 0, 0)
	if err != nil {
		return err
	}
	t := time.Now()
	if err := tgt.Photo.BulkLoad(recs); err != nil {
		return err
	}
	m["store.bulkload_rows_per_s"] = float64(len(recs)) / time.Since(t).Seconds()
	t = time.Now()
	tgt.Photo.RebuildZones()
	m["store.build_zones_s"] = time.Since(t).Seconds()
	t = time.Now()
	tgt.Photo.RebuildColBlks()
	m["store.build_colblk_s"] = time.Since(t).Seconds()
	return nil
}

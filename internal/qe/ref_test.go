package qe

import (
	"math"
	"sort"
	"testing"

	"sdss/internal/query"
)

// refCollect is the scan grids' independent oracle. It answers a
// single-table select by walking every record of the table's store through
// query.RowReader and the compiled predicate — no HTM coverage, zone maps,
// column blocks or kernels — and applies the projection, COUNT,
// NaN-skipping MIN/MAX, SUM/AVG, ORDER BY (key, objid) and LIMIT itself.
// SUM and AVG follow the engine's addition order, so they compare
// bit for bit: each container's operands are summed in record order from
// zero, and the container sums are added in Containers() (ID) order. It shares
// no code with the engine's scan, kernel or gather stages, so a pruning or
// kernel bug cannot hide on both sides of a comparison;
// query.TestRowReaderMatchesStructCodecs ties the row reader to the catalog
// struct codecs.
func refCollect(t testing.TB, e *Engine, q string) []Result {
	t.Helper()
	prep, err := query.PrepareString(q)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	cs := prep.Select
	if cs == nil {
		t.Fatalf("refCollect %q: not a single-table select", q)
	}
	if cs.Limit > 0 && cs.Order == query.AttrInvalid && cs.Agg == query.AggNone {
		t.Fatalf("refCollect %q: LIMIT without ORDER BY has no unique answer", q)
	}
	st, err := e.storeFor(cs.Table)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := query.NewRowReader(cs.Table)
	if err != nil {
		t.Fatal(err)
	}

	var out []Result
	var keys, aggVals []float64
	var sum float64
	for _, cid := range st.Containers() {
		var part float64
		err := st.ForEachInContainer(cid, func(rec []byte) error {
			if err := rr.Reset(rec); err != nil {
				return err
			}
			if cs.Pred != nil && !cs.Pred(rr.Get) {
				return nil
			}
			r := Result{ObjID: rr.ObjID()}
			for _, a := range cs.Cols {
				r.Values = append(r.Values, rr.Get(a))
			}
			out = append(out, r)
			if cs.Order != query.AttrInvalid {
				keys = append(keys, rr.Get(cs.Order))
			}
			if cs.Agg != query.AggNone && cs.Agg != query.AggCount {
				v := rr.Get(cs.AggCol)
				aggVals = append(aggVals, v)
				part += v
			}
			return nil
		})
		if err != nil {
			t.Fatalf("refCollect %q: %v", q, err)
		}
		sum += part
	}

	switch cs.Agg {
	case query.AggNone:
	case query.AggCount:
		return []Result{{Values: []float64{float64(len(out))}}}
	case query.AggMin, query.AggMax:
		// NaN operands are skipped; no measured operand at all answers 0.
		v, seen := 0.0, false
		for _, x := range aggVals {
			if math.IsNaN(x) {
				continue
			}
			if !seen || (cs.Agg == query.AggMin && x < v) || (cs.Agg == query.AggMax && x > v) {
				v, seen = x, true
			}
		}
		return []Result{{Values: []float64{v}}}
	case query.AggSum:
		return []Result{{Values: []float64{sum}}}
	case query.AggAvg:
		// NaN operands poison the average; no row at all answers 0.
		avg := 0.0
		if len(out) > 0 {
			avg = sum / float64(len(out))
		}
		return []Result{{Values: []float64{avg}}}
	default:
		t.Fatalf("refCollect %q: aggregate %v has no reference", q, cs.Agg)
	}

	if cs.Order != query.AttrInvalid {
		// NaN is the smallest key: it leads ascending and trails DESC. Key
		// ties break by ascending objid either way.
		before := func(a, b float64) bool {
			if cs.Desc {
				a, b = b, a
			}
			if math.IsNaN(a) || math.IsNaN(b) {
				return math.IsNaN(a) && !math.IsNaN(b)
			}
			return a < b
		}
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool {
			a, b := keys[idx[i]], keys[idx[j]]
			if before(a, b) || before(b, a) {
				return before(a, b)
			}
			return out[idx[i]].ObjID < out[idx[j]].ObjID
		})
		sorted := make([]Result, len(out))
		for i, k := range idx {
			sorted[i] = out[k]
		}
		out = sorted
	}
	if cs.Limit > 0 && len(out) > cs.Limit {
		out = out[:cs.Limit]
	}
	return out
}

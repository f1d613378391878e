package archive

import (
	"io"
	"math/rand"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/qe"
	"sdss/internal/query"
)

// exportCols is the export workload's projection,
// SELECT objid,ra,dec,u,g,r,i,z FROM tag.
var exportCols = []query.Column{
	{Name: "objid", Type: query.TypeID},
	floatCol("ra"), floatCol("dec"),
	floatCol("u"), floatCol("g"), floatCol("r"), floatCol("i"), floatCol("z"),
}

// exportRows makes n rows of exportCols: objids numbered from 2^40 as the
// survey generator numbers them, positions at full float64 width, and
// magnitudes widened from float32 as the engine stores them.
func exportRows(n int) []qe.Result {
	rng := rand.New(rand.NewSource(1))
	rows := make([]qe.Result, n)
	for k := range rows {
		id := uint64(1)<<40 + uint64(k)
		v := []float64{float64(id), rng.Float64() * 360, rng.Float64()*180 - 90}
		for range 5 {
			v = append(v, float64(float32(14+rng.Float64()*10)))
		}
		rows[k] = qe.Result{ObjID: catalog.ObjID(id), Values: v}
	}
	return rows
}

// splitBatches cuts rows into batches of at most size rows.
func splitBatches(rows []qe.Result, size int) []qe.Batch {
	var out []qe.Batch
	for len(rows) > size {
		out = append(out, qe.Batch(rows[:size]))
		rows = rows[size:]
	}
	if len(rows) > 0 {
		out = append(out, qe.Batch(rows))
	}
	return out
}

// batchSource presents batches the way a live query delivers them, with
// the given post-stream state.
func batchSource(cols []query.Column, batches []qe.Batch, truncated bool, streamErr error) rowSource {
	ch := make(chan qe.Batch, len(batches))
	for _, b := range batches {
		ch <- b
	}
	close(ch)
	return rowSource{
		cols:      cols,
		batches:   ch,
		truncated: func() bool { return truncated },
		errFn:     func() error { return streamErr },
	}
}

// benchmarkWriter formats 12,000 export rows in batches of 256 to
// io.Discard per iteration and reports the cost per row.
func benchmarkWriter(b *testing.B, write func(io.Writer, rowSource)) {
	const rows = 12000
	batches := splitBatches(exportRows(rows), 256)
	b.ReportAllocs()
	for b.Loop() {
		write(io.Discard, batchSource(exportCols, batches, false, nil))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func BenchmarkWriteCSV(b *testing.B)    { benchmarkWriter(b, writeCSV) }
func BenchmarkWriteNDJSON(b *testing.B) { benchmarkWriter(b, writeNDJSON) }

func BenchmarkWriteJSON(b *testing.B) {
	benchmarkWriter(b, func(w io.Writer, src rowSource) {
		body, err := jsonBody(src)
		if err != nil {
			b.Fatal(err)
		}
		w.Write(body)
	})
}

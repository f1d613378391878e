package qe

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// foldGridWheres are the WHERE shapes of the fold grid: no predicate, an
// exact range the kernel decides alone, a negation that admits NaN, an
// arithmetic residual the row predicate re-checks, a circle, and a
// residual nothing satisfies (the kernel runs, the answer is empty).
func foldGridWheres(ra, dec float64) []string {
	return []string{
		"",
		" WHERE r < 20",
		" WHERE NOT (r < 20)",
		" WHERE g - r > 0.5 AND r < 21",
		fmt.Sprintf(" WHERE CIRCLE(%v, %v, 600)", ra, dec),
		" WHERE g - r > 50",
	}
}

// TestFoldMatchesReference pins the leaf fold bit for bit against the
// reference's addition order (refCollect): every aggregate, over a stored
// operand (r) and a derived one (tag ra, read through the column getter),
// under every foldGridWheres shape, on the NaN archive and the cover
// archive, at one and four shard slices and Workers 1, 2 and 4. Small
// morsels make a scan fan out over several morsels, so the
// partials are written by different workers and still combine in
// container-ID order.
func TestFoldMatchesReference(t *testing.T) {
	type archive struct {
		name    string
		e       *Engine
		ra, dec float64
	}
	var archives []archive
	for _, shards := range []int{1, 4} {
		e, _, _ := nanArchive(t, shards)
		archives = append(archives, archive{fmt.Sprintf("nan/shards=%d", shards), e, 100.5, 40.25})
		c, photo := coverArchive(t, 3000, 5, 4, shards)
		archives = append(archives, archive{fmt.Sprintf("cover/shards=%d", shards), c, photo[0].RA, photo[0].Dec})
	}
	var nonEmpty, nanSums int
	for _, a := range archives {
		var qs []string
		for _, w := range foldGridWheres(a.ra, a.dec) {
			qs = append(qs, "SELECT COUNT(*) FROM tag"+w)
			for _, agg := range []string{"SUM", "AVG", "MIN", "MAX"} {
				for _, col := range []string{"r", "ra"} {
					qs = append(qs, fmt.Sprintf("SELECT %s(%s) FROM tag%s", agg, col, w))
				}
			}
		}
		for _, q := range qs {
			want := refCollect(t, a.e, q)
			if v := want[0].Values[0]; math.IsNaN(v) {
				nanSums++
			} else if v != 0 {
				nonEmpty++
			}
			for _, workers := range []int{1, 2, 4} {
				e := &Engine{Photo: a.e.Photo, Tag: a.e.Tag, Spec: a.e.Spec, Workers: workers, morselTarget: 64}
				got := mustCollect(t, e, q)
				if err := sameResultsExact(got, want); err != nil {
					t.Errorf("%s W=%d %q: %v", a.name, workers, q, err)
				}
			}
		}
	}
	// The grid is vacuous unless some answers are real numbers and the NaN
	// archive's r operands poison some SUM/AVG.
	if nonEmpty == 0 || nanSums == 0 {
		t.Fatalf("grid is vacuous: %d non-zero answers, %d NaN sums", nonEmpty, nanSums)
	}
}

// TestFoldDecodesOnlyItsOperand is the mechanism, read from EXPLAIN
// ANALYZE at one worker: a leaf fold decodes the columns its kernel tests
// and its operand, never the objid. COUNT(*) with no predicate decodes
// nothing at all; AVG(r) decodes exactly what MAX(r) does (the r column)
// and less than projecting objid and r; and the scan's rows_out is the
// number of rows folded.
func TestFoldDecodesOnlyItsOperand(t *testing.T) {
	e, _ := coverArchive(t, 20000, 3, 4, 1)
	e.Workers = 1
	analyze := func(q string) (decoded, rowsOut int64, res []Result) {
		t.Helper()
		plan, rows := openAnalyzed(t, e, q)
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		sn := scanNode(t, plan)
		return sn.Actual.BytesDecoded, sn.Actual.RowsOut, res
	}

	if d, _, _ := analyze("SELECT COUNT(*) FROM tag"); d != 0 {
		t.Errorf("COUNT(*) FROM tag decoded %d bytes, want 0", d)
	}
	avg, _, _ := analyze("SELECT AVG(r) FROM tag")
	mx, _, _ := analyze("SELECT MAX(r) FROM tag")
	proj, _, _ := analyze("SELECT objid, r FROM tag")
	if avg == 0 || avg != mx {
		t.Errorf("AVG(r) decoded %d bytes, MAX(r) %d: want equal and non-zero", avg, mx)
	}
	if avg >= proj {
		t.Errorf("AVG(r) decoded %d bytes, not fewer than objid, r (%d)", avg, proj)
	}

	for _, q := range []string{
		"SELECT COUNT(*) FROM tag",
		"SELECT COUNT(*) FROM tag WHERE r < 20",
		"SELECT COUNT(*) FROM photoobj WHERE g - r > 0.5 AND r < 21",
	} {
		_, out, res := analyze(q)
		if len(res) != 1 || float64(out) != res[0].Values[0] || out == 0 {
			t.Errorf("%q: scan rows_out %d, folded count %v", q, out, res)
		}
	}
}

// BenchmarkAggregate times the leaf fold on the sweep workload's
// aggregate statements plus an unfiltered COUNT(*), each planned and
// executed per iteration as a served query is.
func BenchmarkAggregate(b *testing.B) {
	e, _ := coverArchive(b, 50000, 1, 4, 1)
	for _, bc := range []struct{ name, q string }{
		{"avg_r", "SELECT AVG(r) FROM tag"},
		{"max_u", "SELECT MAX(u) FROM tag WHERE i < 20.5"},
		{"count_color", "SELECT COUNT(*) FROM photoobj WHERE g - r > 0.5 AND r < 21"},
		{"count_all", "SELECT COUNT(*) FROM tag"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := e.ExecuteString(context.Background(), bc.q)
				if err != nil {
					b.Fatal(err)
				}
				if res, err := rows.Collect(); err != nil || len(res) != 1 {
					b.Fatalf("%s: %d rows, err %v", bc.q, len(res), err)
				}
			}
		})
	}
}

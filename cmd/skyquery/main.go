// Command skyquery executes archive queries from the command line,
// streaming results as they arrive (the ASAP push made visible).
//
// Usage:
//
//	skyquery -archive archive/ "SELECT objid, ra, dec, r FROM tag WHERE CIRCLE(185, 32, 10) AND r < 21"
//	skyquery -archive archive/ "SELECT p.objid, s.z FROM photo p JOIN spec s ON p.objid = s.objid WHERE p.r < 18"
//	skyquery -archive archive/ "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid"
//	skyquery -archive archive/ -format csv "SELECT objid, r FROM tag LIMIT 100"
//	skyquery -archive archive/ -explain "SELECT objid FROM tag WHERE CIRCLE(185, 32, 10)"
//	skyquery -archive archive/ -explain -analyze "SELECT p.objid FROM photo p JOIN spec s ON p.objid = s.objid"
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"sdss/internal/core"
	"sdss/internal/qe"
	"sdss/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skyquery: ")
	var (
		dir     = flag.String("archive", "archive", "archive directory")
		limit   = flag.Int("max", 0, "stop after this many rows (0 = all)")
		timing  = flag.Bool("t", false, "print timing summary to stderr")
		workers = flag.Int("workers", 0, "morsel pool size (0 = GOMAXPROCS)")
		morsels = flag.Int("morselrows", 0, "target records per scan morsel (0 = default 4096)")
		format  = flag.String("format", "tsv", "output format: tsv, csv, or ndjson")
		explain = flag.Bool("explain", false, "print the logical and physical plans (with zone-map fanout) instead of executing")
		analyze = flag.Bool("analyze", false, "with -explain: execute the query and report actual rows and timing per operator")
		timeout = flag.Duration("timeout", 0, "abort the query after this duration (0 = none)")
		noZone  = flag.Bool("nozone", false, "disable zone-map container pruning")
		noKern  = flag.Bool("nokernel", false, "disable vectorized filter kernels over compressed column blocks")
	)
	flag.Parse()
	q := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if q == "" {
		log.Fatal(`no query given; usage: skyquery -archive DIR "SELECT ..."`)
	}

	a, err := core.Create(*dir, core.Options{Workers: *workers, MorselRows: *morsels})
	if err != nil {
		log.Fatal(err)
	}
	a.Engine().NoZone = *noZone
	a.Engine().NoKernel = *noKern

	if *explain {
		prep, err := a.Prepare(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("logical plan:")
		fmt.Print(prep.Explain())
		plan, err := a.Engine().PlanAnalyze(prep, *analyze)
		if err != nil {
			log.Fatal(err)
		}
		if *analyze {
			// EXPLAIN ANALYZE: run the query, discard rows, keep counters.
			rows, err := a.Engine().ExecutePlan(context.Background(), plan, qe.ExecOptions{
				Timeout: *timeout,
				Analyze: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			n := 0
			for b := range rows.C {
				n += len(b)
				qe.RecycleBatch(b)
			}
			if err := rows.Err(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("physical plan (analyzed, %d rows):\n", n)
		} else {
			fmt.Println("physical plan:")
		}
		fmt.Print(plan.Text())
		// Per-shard scatter + zone pruning: what the scan will actually
		// read versus what the zone maps proved empty.
		fanout, err := a.Engine().Fanout(prep)
		if err == nil {
			for _, fo := range fanout {
				fmt.Printf("scan %s: %d candidate containers, %d zone-pruned, %d scanned (per shard: %v)\n",
					fo.Table, fo.ContainersTotal, fo.ZonePruned, fo.ContainersScanned, fo.ContainersPerShard)
			}
		}
		return
	}

	start := time.Now()
	rows, err := a.QueryRows(context.Background(), q, core.QueryOptions{
		Limit:   *limit,
		Timeout: *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	cols := rows.Columns()

	var emit func(r qe.Result)
	var finish func()
	switch *format {
	case "tsv":
		emit = func(r qe.Result) {
			fmt.Printf("%d", uint64(r.ObjID))
			for _, v := range r.Values {
				fmt.Printf("\t%g", v)
			}
			fmt.Println()
		}
		finish = func() {}
	case "csv":
		cw := csv.NewWriter(os.Stdout)
		header := make([]string, len(cols))
		for i, c := range cols {
			header[i] = c.Name
		}
		cw.Write(header)
		record := make([]string, len(cols))
		emit = func(r qe.Result) {
			for i, c := range cols {
				record[i] = formatValue(c, r.Values[i])
			}
			cw.Write(record)
		}
		finish = cw.Flush
	case "ndjson":
		emit = func(r qe.Result) {
			var b strings.Builder
			b.WriteByte('{')
			for i, c := range cols {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%q:%s", c.Name, jsonValue(c, r.Values[i]))
			}
			b.WriteByte('}')
			fmt.Println(b.String())
		}
		finish = func() {}
	default:
		log.Fatalf("unknown format %q (want tsv, csv, or ndjson)", *format)
	}

	var first time.Duration
	n := 0
	for batch := range rows.C {
		if first == 0 && len(batch) > 0 {
			first = time.Since(start)
		}
		for _, r := range batch {
			emit(r)
			n++
		}
		qe.RecycleBatch(batch)
	}
	finish()
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	if rows.Truncated() {
		fmt.Fprintf(os.Stderr, "truncated after %d rows\n", n)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "%d rows; first row after %v; complete after %v\n",
			n, first.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	}
}

// formatValue renders a value per its column type: IDs and ints exact,
// floats in shortest form.
func formatValue(c query.Column, v float64) string {
	switch c.Type {
	case query.TypeID:
		return strconv.FormatUint(uint64(v), 10)
	case query.TypeInt:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// jsonValue is formatValue for JSON output, where NaN and ±Inf are not
// valid tokens and render as null.
func jsonValue(c query.Column, v float64) string {
	if c.Type == query.TypeFloat && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return "null"
	}
	return formatValue(c, v)
}

// Command bench is the archive's benchmark: five named workloads driven
// through the /v1 tier inside this one process, end-to-end metrics a user of
// the archive would see, and — in a separate traced run — the cost of every
// layer measured from outside by timing calls into its exported functions.
//
//	go run ./bench -workload sweep -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload sweep -seed 1 -seconds 10 -trace 1 -out /tmp/out
//	go run ./bench -compare /tmp/a/results.jsonl /tmp/b/results.jsonl
//
// It starts no child process. The server is an http.Server on 127.0.0.1:0
// in this process, the load generator is goroutines beside it, scratch files
// live under ./.bench_tmp and are removed before exit. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: interactive, sweep, export, mining or ingest")
		seed     = flag.Int64("seed", 1, "seed of the request list (ingest: of the order the chunk files arrive in)")
		seconds  = flag.Float64("seconds", 12, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		objects  = flag.Int("objects", defaultObjects, "survey size in objects")
		out      = flag.String("out", "", "directory that receives results.jsonl and trace-<workload>.json (nothing is written when empty)")
		deadline = flag.Duration("deadline", 150*time.Second, "hard limit on the whole run; past it the process reports what is still running and exits 3")
		compare  = flag.Bool("compare", false, "compare two results.jsonl files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want interactive, sweep, export, mining or ingest)\n", *workload)
		return 2
	}
	if *seconds <= 0 || *objects < 100 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -objects at least 100 and -trace 0 or 1")
		return 2
	}

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.Remove(tmpRoot) // goes only when empty: a concurrent run may share it
	runDir, err := os.MkdirTemp(tmpRoot, "pid-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	// The watchdog is the one exit besides the end of main: a run that hangs
	// says where and ends itself, so no harness has to kill `go run` and
	// orphan the binary it started.
	var timedOut atomic.Bool
	watchdog := time.AfterFunc(*deadline, func() {
		timedOut.Store(true)
		fmt.Fprintf(os.Stderr, "bench: deadline of %v passed; goroutines still running:\n", *deadline)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.RemoveAll(runDir)
		os.Remove(tmpRoot)
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := &config{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		objects:  *objects,
		setups:   3,
		tmpRoot:  runDir,
		outDir:   *out,
	}
	res, err := run(cfg)
	if timedOut.Load() {
		select {} // the watchdog is removing the scratch directory and will exit 3
	}
	if err != nil {
		// No result line: the driver must not mistake a broken run for a
		// measurement.
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	printResult(os.Stdout, res)
	return 0
}

// tmpRoot holds every scratch file of a run, inside the working directory:
// the benchmark reads and writes nowhere else unless -out says so.
const tmpRoot = ".bench_tmp"

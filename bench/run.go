package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"sdss/internal/core"
)

// config is one benchmark run.
type config struct {
	workload workloadSpec
	seed     int64
	window   time.Duration
	trace    bool
	objects  int
	// setups is how many times the whole set-up is performed; setup_s is the
	// median, and the last one is the one measured against.
	setups int
	// tmpRoot is where the run's scratch directory is created and removed.
	tmpRoot string
	outDir  string
	// tamper, when set, falsifies one oracle entry (tests only).
	tamper func([]request)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. The last stdout line is its first four
// fields; results.jsonl under -out carries all of it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Workload  string                 `json:"workload,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
	Env       map[string]any         `json:"env,omitempty"`
	Samples   map[string]int         `json:"samples,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
	// addr is where the run's server listened; tests dial it to see it closed.
	addr string
}

// set records a declared metric; an undeclared name is dropped, and a value
// that is not a number (an empty window) is recorded as 0.
func (r *result) set(specs []metricSpec, name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, m := range specs {
		if m.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
			r.Samples[name] = samples
		}
	}
}

// fullObjects and fullDepth are the archive the benchmark is a scale model
// of: 200k objects in the store's default depth-5 containers, 93 rows to a
// container. That size does not fit the driver's time budget.
const (
	fullObjects = 200000
	fullDepth   = 5
)

// archiveOptions coarsens the containers by one HTM level for every 4× the
// survey is smaller than full size, so rows per container — and with it
// containers per morsel, zone-map granularity and the size of a container
// file — stay what they are at full size. At the default depth a 50k-object
// archive is ~6400 files of 23 rows, and building it measures this
// sandbox's file creation, whose speed shifts several-fold with what the
// disk did last, more than it measures the archive.
//
// Ingest goes one level coarser still, to 373 rows a container: at 93 a
// cycle is a third file creation, and that third doubles or halves with the
// disk's recent history; at 373 the same code runs and the cycle is the
// archive's own work to within a tenth.
func (c *config) archiveOptions() core.Options {
	depth := fullDepth
	for n := c.objects; n*2 <= fullObjects && depth > 2; n *= 4 {
		depth--
	}
	if c.workload.Name == wIngest && depth > 2 {
		depth--
	}
	return core.Options{ContainerDepth: depth}
}

func (c *config) clients() int { return min(c.workload.Clients, runtime.NumCPU()) }

func (c *config) env() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"goversion":  runtime.Version(),
		"commit":     commit,
		"seed":       c.seed,
		"objects":    c.objects,
		"depth":      c.archiveOptions().ContainerDepth,
		"window_s":   c.window.Seconds(),
		"clients":    c.clients(),
	}
}

// fixture is one complete set-up: generated survey, built and reopened
// archive, running /v1 tier, checked request list. Ingest stops after the
// survey; its cycles build the rest.
type fixture struct {
	cfg     *config
	dir     string
	sv      *survey
	files   []string // ingest: the chunk files in the order they are loaded
	b       *built
	srv     *server
	hc      *http.Client
	reqs    []request
	maxRows int
	jobs    map[string]string // statement → finished job id
	warm    *window
	cycles  int // ingest cycles begun; each gets a directory of its own
}

func setUp(cfg *config) (fx *fixture, err error) {
	fx = &fixture{cfg: cfg, jobs: map[string]string{}}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if fx.dir, err = os.MkdirTemp(cfg.tmpRoot, "run-"); err != nil {
		return fx, err
	}
	w := cfg.workload
	if fx.sv, err = generateSurvey(fx.dir, cfg.objects, surveyChunks); err != nil {
		return fx, err
	}
	if w.Name == wIngest {
		// The nights arrive in an order the seed picks.
		fx.files = append([]string(nil), fx.sv.files...)
		rand.New(rand.NewSource(cfg.seed)).Shuffle(len(fx.files), func(i, j int) {
			fx.files[i], fx.files[j] = fx.files[j], fx.files[i]
		})
		return fx, nil
	}
	archive := filepath.Join(fx.dir, "archive")
	if fx.b, err = buildArchive(archive, cfg.archiveOptions(), fx.sv.files, nil, 0, -1); err != nil {
		return fx, err
	}
	if fx.b.storedBytes, err = dirBytes(archive); err != nil {
		return fx, err
	}
	fx.reqs = genRequests(w.Name, cfg.seed, newOracle(fx.sv))
	if cfg.tamper != nil {
		cfg.tamper(fx.reqs)
	}
	fx.maxRows = 10000 // the server's interactive default
	if w.Name == wExport {
		fx.maxRows = 1 << 30
	}
	if fx.srv, err = startServer(fx.b.arch.Engine(), fx.maxRows); err != nil {
		return fx, err
	}
	fx.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.clients(),
		DisableCompression:  true,
	}}
	for i := range fx.reqs {
		if r := &fx.reqs[i]; r.Job {
			id, err := fx.jobFor(r.Query)
			if err != nil {
				return fx, err
			}
			r.Path = "/v1/jobs/" + id + "/rows?format=" + r.Format
		}
	}
	// Warm-up: the whole list once, so the pool has run, connections are
	// open, and every expectation has been checked before the clock starts.
	fx.warm = &window{}
	c := newLoadClient(fx.hc, fx.srv.url)
	for i := range fx.reqs {
		fx.warm.add(c.do(&fx.reqs[i]), len(templates[w.Name]))
	}
	return fx, nil
}

// close stops the server and drops idle connections. It is safe on a partly
// built fixture. The fixture's directory stays until the run ends: on this
// sandbox's ext4 (mounted with discard) unlinking thousands of container
// files slows the file creation that follows it several-fold, so nothing is
// deleted while anything is still to be timed.
func (fx *fixture) close() error {
	if fx.hc != nil {
		fx.hc.CloseIdleConnections()
	}
	if fx.srv != nil {
		return fx.srv.stop()
	}
	return nil
}

// ingestCycle is one ingest operation: chunk files → loaded, sorted,
// flushed archive → reopened from disk → COUNT(*) per table equal to the
// chunk totals. The returned opResult's ttfb is reopen → first correct
// answer; bytes is the raw record footprint made queryable.
func (fx *fixture) ingestCycle(n int, tr *tracer) (opResult, *built) {
	dir := filepath.Join(fx.dir, fmt.Sprintf("cycle-%d", fx.cycles))
	fx.cycles++
	res := opResult{bytes: fx.sv.userBytes}
	root := tr.begin(n, spanOp, -1)
	start := time.Now()
	b, err := buildArchive(dir, fx.cfg.archiveOptions(), fx.files, tr, n, root)
	if err != nil {
		res.lat, res.err = time.Since(start), err
		return res, nil
	}
	s := tr.begin(n, spanExec, root)
	t := time.Now()
	photo, tag, spec, err := tableCounts(context.Background(), b.arch)
	res.ttfb = b.openDur + time.Since(t)
	tr.end(s)
	res.lat = time.Since(start)
	tr.end(root)
	switch {
	case err != nil:
		res.err = err
	case photo != int64(fx.sv.nPhoto) || tag != int64(fx.sv.nPhoto) || spec != int64(fx.sv.nSpec):
		res.err = fmt.Errorf("reopened archive counts photo=%d tag=%d spec=%d, chunks hold %d/%d/%d",
			photo, tag, spec, fx.sv.nPhoto, fx.sv.nPhoto, fx.sv.nSpec)
	}
	if n == 0 && res.err == nil {
		b.storedBytes, res.err = dirBytes(dir)
	}
	return res, b
}

// runIngest repeats ingest cycles, each into a fresh directory, until the
// window is used. Its clock is the sum of cycle times.
func (fx *fixture) runIngest(d time.Duration, tr *tracer) (*window, []*built) {
	w := &window{}
	var builds []*built
	for n := 0; n == 0 || w.elapsed < d; n++ {
		res, b := fx.ingestCycle(n, tr)
		w.add(res, 1)
		w.elapsed += res.lat
		if b != nil {
			if len(builds) > 0 {
				builds[len(builds)-1].arch = nil // only the last archive is probed
			}
			builds = append(builds, b)
		}
		if res.err != nil {
			break
		}
	}
	w.sort()
	return w, builds
}

// run performs the configured run and returns its result. Everything it
// starts is stopped and everything it writes under tmpRoot is removed
// before it returns.
func run(cfg *config) (res *result, err error) {
	res = &result{Workload: cfg.workload.Name, Trace: cfg.trace, Env: cfg.env(),
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var fx *fixture
	var setupS []float64
	defer func() {
		entries, _ := os.ReadDir(cfg.tmpRoot)
		for _, e := range entries {
			if rerr := os.RemoveAll(filepath.Join(cfg.tmpRoot, e.Name())); err == nil {
				err = rerr
			}
		}
	}()
	for i := 0; i < setups; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return res, err
			}
			fx = nil // let the collector have the old archive before the next is built
		}
		t := time.Now()
		if fx, err = setUp(cfg); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer func() {
		if cerr := fx.close(); err == nil {
			err = cerr
		}
	}()
	if fx.srv != nil {
		res.addr = fx.srv.addr
	}
	if fx.warm != nil {
		res.Attempted, res.Failed = fx.warm.attempted, fx.warm.failed
		res.Errors = append(res.Errors, fx.warm.errs...)
	}
	if cfg.trace {
		err = fx.runTraced(res)
	} else {
		// The generated objects have served the oracle. A skyserver holds no
		// such copy, and the collector would walk it on every cycle.
		fx.sv.photo, fx.sv.spec = nil, nil
		fx.runMeasured(res, setupS)
	}
	res.Correct = err == nil && res.Failed == 0
	return res, err
}

// runMeasured is the untraced run: the closed loop over the window, then
// every end-to-end metric.
func (fx *fixture) runMeasured(res *result, setupS []float64) {
	cfg := fx.cfg
	var w *window
	stored := 0.0
	// Memory is measured over the window alone: the set-ups' garbage is
	// collected and handed back first, so the peak is the served archive
	// plus what serving the workload adds to it.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	defer func() { res.set(endToEnd, "peak_rss_mb", rss.stopMB(), 1) }()
	if cfg.workload.Name == wIngest {
		var builds []*built
		w, builds = fx.runIngest(cfg.window, nil)
		if len(builds) > 0 {
			stored = float64(builds[0].storedBytes)
		}
	} else {
		w = runClosedLoop(fx.hc, fx.srv.url, fx.reqs, len(templates[cfg.workload.Name]), cfg.clients(), cfg.window)
		stored = float64(fx.b.storedBytes)
	}
	res.Attempted += w.attempted
	res.Failed += w.failed
	res.Errors = append(res.Errors, w.errs...)
	n := len(w.latMS)
	set := func(name string, v float64, samples int) { res.set(endToEnd, name, v, samples) }
	set("setup_s", median(setupS), len(setupS))
	opsPerS, mbPerS := w.rates(cfg.window)
	if cfg.workload.Name == wIngest {
		// One thread, one cycle after another: the rate at the median cycle.
		opsPerS = 1e3 / percentile(w.latMS, 0.5)
		mbPerS = float64(fx.sv.userBytes) / 1e6 * opsPerS
	}
	set("ops_per_s", opsPerS, n)
	set("op_p50_ms", percentile(w.latMS, 0.5), n)
	set("op_p95_ms", percentile(w.latMS, tailQuantile(n)), n)
	set("ttfb_p50_ms", percentile(w.ttfbMS, 0.5), n)
	set("result_mb_per_s", mbPerS, n)
	set("stored_bytes_per_user_byte", stored/float64(fx.sv.userBytes), 1)
}

// printResult writes every metric as "name value unit n=<samples>
// bound=<x>", the environment, what is not measured, and last the one JSON
// line the driver reads.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "# workload %s trace=%v env %s\n", res.Workload, res.Trace, compactJSON(res.Env))
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-40s %-22s %-6s", m.Name, num(v.Value), v.Unit)
		if n := res.Samples[m.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf(" bound=%g", m.Bound)
		}
		if m.Moves != "" {
			line += " moves=" + m.Moves
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "failed_frac %s (%d of %d)\n", num(float64(res.Failed)/float64(max(res.Attempted, 1))), res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# failure: %s\n", e)
	}
	fmt.Fprintln(w, "# not measured: device behaviour (reads come from the OS cache, flushes are cheap: ingest numbers are this sandbox's), a working set larger than memory, an open-loop rate sweep")
	fmt.Fprintln(w, compactJSON(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}))
}

// appendResult adds the run to <dir>/results.jsonl, the input of -compare.
func appendResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(compactJSON(res) + "\n"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// distinctStatements lists the workload's statements once each, in list order.
func distinctStatements(reqs []request) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range reqs {
		if r.Query != "" && !seen[r.Query] {
			seen[r.Query] = true
			out = append(out, r.Query)
		}
	}
	return out
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}

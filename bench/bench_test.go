package main

import (
	"encoding/json"
	"net"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testConfig is a run small enough for the unit-test budget: ~1000 objects,
// one set-up, a fraction of a second of window.
func testConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	w, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	return &config{
		workload: w, seed: 7, window: 300 * time.Millisecond, trace: trace,
		objects: 1000, setups: 1, tmpRoot: t.TempDir(),
	}
}

// benchmarkJSON mirrors the driver's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", b.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, spec has %d (contract: 2..8)", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec has %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if len(templates[w.Name]) == 0 {
			t.Errorf("workload %s has no request templates", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, spec has %d (contract: ≤16)", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bad unit, direction or bound: %+v", m.Name, m)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, spec has %d (contract: ≤128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, spec has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("per_layer %s: bad unit or direction, or no end-to-end metric it should move: %+v", m.Name, m)
		}
	}
}

// TestEveryWorkloadRuns runs each declared workload measured and traced at
// test size and checks the contract of a run: correct, nothing failed,
// exactly the declared metrics, end-to-end metrics non-zero, and nothing
// left behind — listener closed, goroutines back to baseline, scratch
// directory empty.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			mode := "measured"
			specs := endToEnd
			if trace {
				mode, specs = "traced", perLayer
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				cfg := testConfig(t, w.Name, trace)
				if trace {
					cfg.outDir = t.TempDir()
				}
				before := runtime.NumGoroutine()
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				for _, m := range specs {
					v, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("declared metric %s not emitted", m.Name)
					} else if v.Unit != m.Unit {
						t.Errorf("metric %s emitted in %q, declared in %q", m.Name, v.Unit, m.Unit)
					} else if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, v.Value)
					}
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(specs))
				}
				if trace {
					checkLayerShares(t, w.Name, res)
					if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
						t.Errorf("traced run wrote no trace file: %v", err)
					}
				}

				if res.addr != "" {
					if c, err := net.DialTimeout("tcp", res.addr, time.Second); err == nil {
						c.Close()
						t.Errorf("listener %s still accepts connections after the run", res.addr)
					}
				}
				deadline := time.Now().Add(3 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines after the run, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
				}
				if left, _ := os.ReadDir(cfg.tmpRoot); len(left) != 0 {
					t.Errorf("scratch directory still holds %d entries", len(left))
				}
			})
		}
	}
}

// checkLayerShares asserts that the traced run shows the workload spending
// its op time in the layer it was built to stress.
func checkLayerShares(t *testing.T, workload string, res *result) {
	t.Helper()
	want := map[string]string{
		wSweep: "trace.share.qe_exec", wExport: "trace.share.archive_writer",
		wMining: "trace.share.qe_join", wIngest: "trace.share.store_load",
	}[workload]
	if want == "" {
		return
	}
	// The test archive is 50× smaller than the benchmark's, so fixed costs
	// weigh more; the bar here is "the largest share", the README records
	// the ≥ 60 % the full-size run shows.
	for name, v := range res.Metrics {
		if strings.HasPrefix(name, "trace.share.") && name != want && v.Value > res.Metrics[want].Value {
			t.Errorf("%s: %s is %.2f, above %s at %.2f", workload, name, v.Value, want, res.Metrics[want].Value)
		}
	}
}

func TestSeedDeterminesRequests(t *testing.T) {
	list := func(workload string, seed int64) []request {
		sv, err := generateSurvey(t.TempDir(), 1000, 2)
		if err != nil {
			t.Fatal(err)
		}
		return genRequests(workload, seed, newOracle(sv))
	}
	for _, w := range workloads {
		if w.Name == wIngest {
			continue // its input is the survey itself; no request list
		}
		a, b, c := list(w.Name, 3), list(w.Name, 3), list(w.Name, 4)
		if len(a) == 0 {
			t.Errorf("%s: empty request list", w.Name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same request list", w.Name)
		}
		for _, r := range a {
			if r.Tmpl < 0 || r.Tmpl >= len(templates[w.Name]) {
				t.Errorf("%s: request with template %d of %d", w.Name, r.Tmpl, len(templates[w.Name]))
			}
		}
	}
}

// TestWrongOracleIsAFailure falsifies one expectation and requires the run
// to report it: a mismatch is a failed operation, never ignored.
func TestWrongOracleIsAFailure(t *testing.T) {
	cfg := testConfig(t, wSweep, false)
	cfg.tamper = func(reqs []request) { reqs[0].Value++ }
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a wrong oracle entry went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "oracle says") {
		t.Errorf("failure not explained: %v", res.Errors)
	}
}

func TestResponseChecks(t *testing.T) {
	feed := func(s string, chunk int) *body {
		b := &body{}
		for len(s) > 0 {
			n := min(chunk, len(s))
			b.add([]byte(s[:n]))
			s = s[n:]
		}
		return b
	}
	long := strings.Repeat("1,2.5\n", 500)
	cases := []struct {
		name string
		req  request
		body string
		ok   bool
	}{
		{"csv rows", request{Check: checkRowsCSV, Rows: 500}, "a,b\n" + long, true},
		{"csv rows short", request{Check: checkRowsCSV, Rows: 501}, "a,b\n" + long, false},
		{"csv truncation trailer", request{Check: checkRowsCSV, Rows: 501}, "a,b\n" + long + "# truncated after 500 rows\n", false},
		{"csv empty", request{Check: checkRowsCSV, Rows: 0}, "a,b\n", true},
		{"ndjson rows", request{Check: checkRowsNDJSON, Rows: 2}, "{\"a\":1}\n{\"a\":2}\n", true},
		{"ndjson trailer", request{Check: checkRowsNDJSON, Rows: 3}, "{\"a\":1}\n{\"a\":2}\n{\"truncated\":true,\"rows\":2}\n", false},
		{"json row_count", request{Check: checkRowsJSON, Rows: 12}, `{"columns":[],"rows":[` + strings.Repeat("{},", 400) + `],"row_count":12,"truncated":false}` + "\n", true},
		{"json row_count wrong", request{Check: checkRowsJSON, Rows: 13}, `{"rows":[],"row_count":12,"truncated":false}` + "\n", false},
		{"aggregate exact", request{Check: checkValueCSV, Value: 2347}, "count(*)\n2347\n", true},
		{"aggregate off by one", request{Check: checkValueCSV, Value: 2348}, "count(*)\n2347\n", false},
		{"aggregate tolerance", request{Check: checkValueCSV, Value: 22.272162040092, Tol: 1e-9}, "avg(r)\n22.272162040092233\n", true},
		{"top value", request{Check: checkTopCSV, Rows: 2, Value: 14.5}, "objid,r\n7,14.5\n8,15\n", true},
		{"top value wrong", request{Check: checkTopCSV, Rows: 2, Value: 14.25}, "objid,r\n7,14.5\n8,15\n", false},
	}
	for _, c := range cases {
		for _, chunk := range []int{7, 300, 1 << 20} {
			err := c.req.check(feed(c.body, chunk))
			if (err == nil) != c.ok {
				t.Errorf("%s (chunks of %d): check returned %v, want ok=%v", c.name, chunk, err, c.ok)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(center float64) sideStats {
		return summarize([]float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005})
	}
	cases := []struct {
		m    metricSpec
		a, b sideStats
		want string
	}{
		{lower, tight(10), tight(10.5), "ok"},
		{lower, tight(10), tight(11.5), "worse"},
		{lower, tight(10), tight(8), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "ok"},
		{lower, tight(10), summarize([]float64{8, 9, 10, 11, 12, 13}), "unresolved"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q (a %+v b %+v)", i, got, c.want, c.a, c.b)
		}
	}
	// The quartiles must be the ones Python's statistics.quantiles(n=4) gives.
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(s, 1), quartile(s, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v and %v, want 2.75 and 8.25", q1, q3)
	}
}

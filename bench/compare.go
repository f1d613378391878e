package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults loads a results.jsonl file: one run per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// sideStats is one file's runs of one workload × metric.
type sideStats struct {
	n      int
	median float64
	spread float64 // interquartile distance as a share of the median
}

func summarize(vals []float64) sideStats {
	s := sideStats{n: len(vals), median: median(vals)}
	if len(vals) >= 4 && s.median != 0 {
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		s.spread = (quartile(sorted, 3) - quartile(sorted, 1)) / s.median
	}
	return s
}

// quartile is the k-th quartile by the exclusive method, the one Python's
// statistics.quantiles(values, n=4) uses.
func quartile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k) * float64(n+1) / 4
	i := int(pos)
	switch {
	case i < 1:
		return sorted[0]
	case i >= n:
		return sorted[n-1]
	}
	return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
}

// verdict judges side b against side a for one metric: "worse" when b's
// median is worse than a's by more than the bound, "unresolved" when either
// side's own runs spread wider than the bound, else "ok".
func verdict(m metricSpec, a, b sideStats) (string, float64) {
	if a.median == 0 {
		return "unresolved", 0
	}
	rel := (b.median - a.median) / a.median
	worse := rel
	if m.Better == "higher" {
		worse = -rel
	}
	switch {
	case a.spread > m.Bound || b.spread > m.Bound:
		return "unresolved", rel
	case worse > m.Bound:
		return "worse", rel
	}
	return "ok", rel
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// relative difference, the bound and the verdict. It returns 1 when any
// line reads worse or unresolved, or a run in either file was not correct.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	collect := func(runs []result, workload, metric string) []float64 {
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				vals = append(vals, v.Value)
			}
		}
		return vals
	}
	failures := func(runs []result, workload string) int {
		n := 0
		for _, r := range runs {
			if r.Workload == workload {
				n += r.Failed
			}
		}
		return n
	}
	bad := 0
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "a median (n)", "b median (n)", "diff", "bound", "verdict")
	for _, spec := range workloads {
		wl := spec.Name
		for _, m := range endToEnd {
			va, vb := collect(a, wl, m.Name), collect(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			v, rel := verdict(m, sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-28s %10.4g (%d) %10.4g (%d) %+7.1f%% %5.1f%%  %s\n",
				wl, m.Name, sa.median, sa.n, sb.median, sb.n, 100*rel, 100*m.Bound, v)
		}
		if fa, fb := failures(a, wl), failures(b, wl); fa+fb > 0 {
			bad++
			fmt.Fprintf(w, "%-12s failed operations: a %d, b %d  worse\n", wl, fa, fb)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

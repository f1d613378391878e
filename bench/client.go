package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// opResult is what one client saw of one request.
type opResult struct {
	tmpl  int
	end   time.Duration // completion time, since the window opened
	lat   time.Duration // send → last body byte
	ttfb  time.Duration // send → first body byte
	bytes int64
	err   error // nil when the response was 200 and agreed with the oracle
}

// body is the little a check needs of a response, gathered while the body
// streams past so a 2 MB export costs the client one newline count.
type body struct {
	bytes    int64
	newlines int
	head     []byte // first ≤ 512 bytes
	tail     []byte // last ≤ 256 bytes
}

const (
	headKeep = 512
	tailKeep = 256
)

func (b *body) add(p []byte) {
	b.bytes += int64(len(p))
	b.newlines += bytes.Count(p, []byte{'\n'})
	if room := headKeep - len(b.head); room > 0 {
		b.head = append(b.head, p[:min(room, len(p))]...)
	}
	if len(p) >= tailKeep {
		b.tail = append(b.tail[:0], p[len(p)-tailKeep:]...)
		return
	}
	b.tail = append(b.tail, p...)
	if over := len(b.tail) - tailKeep; over > 0 {
		b.tail = b.tail[:copy(b.tail, b.tail[over:])]
	}
}

// check compares a drained 200 response with the request's expectation.
func (r *request) check(b *body) error {
	lines := bytes.Split(b.head, []byte{'\n'})
	switch r.Check {
	case checkRowsCSV, checkTopCSV:
		rows := b.newlines - 1
		if bytes.Contains(b.tail, []byte("\n# ")) {
			return fmt.Errorf("csv trailer in response: %q", lastLine(b.tail))
		}
		if rows != r.Rows {
			return fmt.Errorf("got %d rows, oracle says %d", rows, r.Rows)
		}
		if r.Check == checkTopCSV && r.Rows > 0 {
			if len(lines) < 3 {
				return fmt.Errorf("short csv body %q", b.head)
			}
			fields := bytes.Split(lines[1], []byte{','})
			return r.checkValue(string(fields[len(fields)-1]))
		}
	case checkRowsNDJSON:
		if bytes.Contains(lastLine(b.tail), []byte(`"truncated"`)) || bytes.Contains(lastLine(b.tail), []byte(`"error"`)) {
			return fmt.Errorf("ndjson trailer in response: %q", lastLine(b.tail))
		}
		if b.newlines != r.Rows {
			return fmt.Errorf("got %d rows, oracle says %d", b.newlines, r.Rows)
		}
	case checkRowsJSON:
		const key = `"row_count":`
		i := bytes.LastIndex(b.tail, []byte(key))
		if i < 0 {
			return fmt.Errorf("no row_count in json tail %q", b.tail)
		}
		digits := b.tail[i+len(key):]
		end := 0
		for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
			end++
		}
		rows, err := strconv.Atoi(string(digits[:end]))
		if err != nil {
			return fmt.Errorf("bad row_count in json tail %q", b.tail)
		}
		if rows != r.Rows {
			return fmt.Errorf("got %d rows, oracle says %d", rows, r.Rows)
		}
	case checkValueCSV:
		if len(lines) < 3 || b.newlines != 2 {
			return fmt.Errorf("aggregate body is not header + one value: %q", b.head)
		}
		return r.checkValue(string(lines[1]))
	}
	return nil
}

func (r *request) checkValue(s string) error {
	got, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("unparsable value %q", s)
	}
	if got != r.Value && !(math.Abs(got-r.Value) <= r.Tol*math.Abs(r.Value)) {
		return fmt.Errorf("got value %v, oracle says %v", got, r.Value)
	}
	return nil
}

func lastLine(tail []byte) []byte {
	t := bytes.TrimRight(tail, "\n")
	return t[bytes.LastIndexByte(t, '\n')+1:]
}

// loadClient is one closed-loop client: it sends a request, drains and
// checks the reply, and only then sends the next.
type loadClient struct {
	http *http.Client
	base string
	buf  []byte
}

func newLoadClient(hc *http.Client, base string) *loadClient {
	return &loadClient{http: hc, base: base, buf: make([]byte, 64<<10)}
}

func (c *loadClient) do(r *request) opResult {
	res := opResult{tmpl: r.Tmpl}
	start := time.Now()
	resp, err := c.http.Get(c.base + r.Path)
	if err != nil {
		res.lat, res.err = time.Since(start), err
		return res
	}
	var b body
	for {
		n, rerr := resp.Body.Read(c.buf)
		if n > 0 {
			if res.ttfb == 0 {
				res.ttfb = time.Since(start)
			}
			b.add(c.buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	res.lat = time.Since(start)
	resp.Body.Close()
	if res.ttfb == 0 {
		res.ttfb = res.lat // an empty body: the reply was complete at its headers
	}
	res.bytes = b.bytes
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b.head))
	default:
		res.err = r.check(&b)
	}
	return res
}

// window is the outcome of one measured run of the request list.
type window struct {
	elapsed   time.Duration
	attempted int
	failed    int
	bytes     int64
	latMS     []float64   // correct ops only, sorted
	ttfbMS    []float64   // correct ops only, sorted
	byTmplMS  [][]float64 // correct ops per template, sorted
	errs      []string    // the first few failures, for the report
	// sliceOps and sliceBytes count correct ops and their body bytes by the
	// second of the window they completed in.
	sliceOps   []float64
	sliceBytes []float64
}

const sliceDur = time.Second

// rates returns completed ops and body megabytes per second as the median
// over the window's whole one-second slices: a burst of interference from
// outside the process (this is a shared 2-CPU VM) moves a few slices, not
// the median. A window of fewer than three whole slices reports its mean.
func (w *window) rates(d time.Duration) (opsPerS, mbPerS float64) {
	full := int(d / sliceDur)
	if full < 3 {
		return float64(len(w.latMS)) / w.elapsed.Seconds(), float64(w.bytes) / 1e6 / w.elapsed.Seconds()
	}
	ops, mb := make([]float64, full), make([]float64, full)
	for k := 0; k < full && k < len(w.sliceOps); k++ {
		ops[k] = w.sliceOps[k] / sliceDur.Seconds()
		mb[k] = w.sliceBytes[k] / 1e6 / sliceDur.Seconds()
	}
	return median(ops), median(mb)
}

func (w *window) add(r opResult, nTmpl int) {
	if w.byTmplMS == nil {
		w.byTmplMS = make([][]float64, nTmpl)
	}
	w.attempted++
	if r.err != nil {
		w.failed++
		if len(w.errs) < 5 {
			w.errs = append(w.errs, r.err.Error())
		}
		return
	}
	k := int(r.end / sliceDur)
	for len(w.sliceOps) <= k {
		w.sliceOps = append(w.sliceOps, 0)
		w.sliceBytes = append(w.sliceBytes, 0)
	}
	w.sliceOps[k]++
	w.sliceBytes[k] += float64(r.bytes)
	ms := float64(r.lat) / 1e6
	w.bytes += r.bytes
	w.latMS = append(w.latMS, ms)
	w.ttfbMS = append(w.ttfbMS, float64(r.ttfb)/1e6)
	w.byTmplMS[r.tmpl] = append(w.byTmplMS[r.tmpl], ms)
}

func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.bytes += o.bytes
	w.latMS = append(w.latMS, o.latMS...)
	w.ttfbMS = append(w.ttfbMS, o.ttfbMS...)
	if w.byTmplMS == nil {
		w.byTmplMS = make([][]float64, len(o.byTmplMS))
	}
	for i := range o.byTmplMS {
		w.byTmplMS[i] = append(w.byTmplMS[i], o.byTmplMS[i]...)
	}
	for _, e := range o.errs {
		if len(w.errs) < 5 {
			w.errs = append(w.errs, e)
		}
	}
	for k := range o.sliceOps {
		if len(w.sliceOps) <= k {
			w.sliceOps = append(w.sliceOps, 0)
			w.sliceBytes = append(w.sliceBytes, 0)
		}
		w.sliceOps[k] += o.sliceOps[k]
		w.sliceBytes[k] += o.sliceBytes[k]
	}
}

func (w *window) sort() {
	sort.Float64s(w.latMS)
	sort.Float64s(w.ttfbMS)
	for _, s := range w.byTmplMS {
		sort.Float64s(s)
	}
}

// runClosedLoop drives the request list with `clients` closed-loop clients
// for the given duration; client k takes requests k, k+clients, … and wraps.
func runClosedLoop(hc *http.Client, base string, reqs []request, nTmpl, clients int, d time.Duration) *window {
	parts := make([]*window, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newLoadClient(hc, base)
			w := &window{}
			for i := k; time.Now().Before(deadline); i += clients {
				r := c.do(&reqs[i%len(reqs)])
				r.end = time.Since(start)
				w.add(r, nTmpl)
			}
			parts[k] = w
		}(k)
	}
	wg.Wait()
	total := &window{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	total.sort()
	return total
}

package archive

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"sdss/internal/qe"
	"sdss/internal/query"
)

// Format identifies a result-set wire encoding.
type Format string

// The supported wire formats.
const (
	// FormatJSON is a single JSON document: columns, rows as objects with
	// named fields, row count, truncation flag. It is built whole before
	// the status goes out, so a query that fails late still gets an error
	// status.
	FormatJSON Format = "json"
	// FormatNDJSON streams one JSON object per row as rows arrive — the
	// wire face of the ASAP push. A trailing record carries truncation or
	// error state.
	FormatNDJSON Format = "ndjson"
	// FormatCSV streams comma-separated rows under a header line of the
	// projection's column names.
	FormatCSV Format = "csv"
)

// Every format is written by typed appenders: each cell is appended to one
// reused []byte by appendCell, JSON object keys are escaped once per
// response (jsonKeys), and the streaming formats write the buffer at each
// batch end and whenever it passes flushAt.

// ParseFormat resolves a ?format= value; empty means JSON.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "json":
		return FormatJSON, nil
	case "ndjson":
		return FormatNDJSON, nil
	case "csv":
		return FormatCSV, nil
	default:
		return "", fmt.Errorf("unknown format %q (want json, ndjson, or csv)", s)
	}
}

// ContentType returns the MIME type the format is served under.
func (f Format) ContentType() string {
	switch f {
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatNDJSON:
		return "application/x-ndjson"
	default:
		return "application/json"
	}
}

// flushAt is the buffer length past which a streaming writer hands its
// bytes to the connection before the batch ends. A finished job's rows
// arrive as one batch of up to JobConfig.MaxRows rows, which would otherwise
// be formatted whole into memory.
const flushAt = 64 << 10

// appendCell appends cell i of r per its column type: IDs and ints as exact
// integers, a projected objid from r.ObjID (see cellUint), floats shortest
// round-trip at 64 bits. In JSON a missing cell and a non-finite float are
// null; in CSV a missing cell is an empty field and non-finite floats are
// NaN, +Inf and -Inf. Numeric fields never need CSV quoting.
func appendCell(buf []byte, c query.Column, r qe.Result, i int, asJSON bool) []byte {
	if i >= len(r.Values) {
		if asJSON {
			return append(buf, "null"...)
		}
		return buf
	}
	if u, ok := cellUint(c, r); ok {
		return strconv.AppendUint(buf, u, 10)
	}
	v := r.Values[i]
	switch c.Type {
	case query.TypeID:
		return strconv.AppendUint(buf, uint64(v), 10)
	case query.TypeInt:
		return strconv.AppendInt(buf, int64(v), 10)
	}
	if asJSON && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// cellUint reports whether the cell should be rendered from an exact
// uint64 source, and that value. Values travel the tree as float64, which
// rounds integers above 2^53 — but a projected objid is the row's own
// object pointer, carried exactly in Result.ObjID, so prefer that over the
// rounded copy.
func cellUint(c query.Column, r qe.Result) (uint64, bool) {
	if c.Name == "objid" && c.Type == query.TypeID && r.ObjID != 0 {
		return uint64(r.ObjID), true
	}
	return 0, false
}

// jsonKeys returns each column's object-key prefix, `"name":` for the first
// and `,"name":` after. It is computed once per response with json.Marshal,
// so names escape exactly as encoding/json escapes them.
func jsonKeys(cols []query.Column) [][]byte {
	keys := make([][]byte, len(cols))
	for i, c := range cols {
		name := mustJSON(c.Name)
		k := make([]byte, 0, len(name)+2)
		if i > 0 {
			k = append(k, ',')
		}
		keys[i] = append(append(k, name...), ':')
	}
	return keys
}

// appendRowJSON appends one row as a JSON object with named fields, in
// projection order; keys come from jsonKeys(cols).
func appendRowJSON(buf []byte, cols []query.Column, keys [][]byte, r qe.Result) []byte {
	buf = append(buf, '{')
	for i, c := range cols {
		buf = append(buf, keys[i]...)
		buf = appendCell(buf, c, r, i, true)
	}
	return append(buf, '}')
}

// appendRowCSV appends one row as a CSV data line.
func appendRowCSV(buf []byte, cols []query.Column, r qe.Result) []byte {
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCell(buf, c, r, i, false)
	}
	return append(buf, '\n')
}

// rowSource abstracts a stream of result batches plus its post-stream
// state, so the same writers serve live queries and materialized job rows.
type rowSource struct {
	cols    []query.Column
	batches <-chan qe.Batch
	// truncated and errFn are consulted only after batches closes.
	truncated func() bool
	errFn     func() error
}

// liveSource adapts a streaming qe.Rows.
func liveSource(rows *qe.Rows) rowSource {
	return rowSource{
		cols:      rows.Columns(),
		batches:   rows.C,
		truncated: rows.Truncated,
		errFn:     rows.Err,
	}
}

// staticSource adapts materialized results (an async job's output).
func staticSource(cols []query.Column, results []qe.Result, truncated bool) rowSource {
	ch := make(chan qe.Batch, 1)
	if len(results) > 0 {
		ch <- qe.Batch(results)
	}
	close(ch)
	return rowSource{
		cols:      cols,
		batches:   ch,
		truncated: func() bool { return truncated },
		errFn:     func() error { return nil },
	}
}

// streamRows appends every row of src to buf with appendRow and writes the
// buffer at each batch end, and whenever it passes flushAt, flushing the
// connection per batch. It stops at the first failed Write, so a client that
// has gone away is not formatted into, and returns the rows formatted.
func streamRows(w io.Writer, src rowSource, buf []byte, appendRow func([]byte, qe.Result) []byte) (int, error) {
	flusher, _ := w.(http.Flusher)
	n := 0
	for b := range src.batches {
		for _, r := range b {
			buf = appendRow(buf, r)
			n++
			if len(buf) >= flushAt {
				if _, err := w.Write(buf); err != nil {
					return n, err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return n, err
			}
			buf = buf[:0]
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return n, err
		}
	}
	return n, nil
}

// writeNDJSON streams rows as newline-delimited JSON objects. After the
// stream ends it emits exactly one trailer record when the row cap truncated
// the stream ({"truncated":true,"rows":N}) or when the tree failed
// mid-stream ({"error":...}).
func writeNDJSON(w io.Writer, src rowSource) {
	keys := jsonKeys(src.cols)
	n, err := streamRows(w, src, nil, func(buf []byte, r qe.Result) []byte {
		return append(appendRowJSON(buf, src.cols, keys, r), '\n')
	})
	if err != nil {
		return
	}
	if err := src.errFn(); err != nil {
		fmt.Fprintf(w, "{\"error\":%s}\n", mustJSON(err.Error()))
		return
	}
	if src.truncated() {
		fmt.Fprintf(w, "{\"truncated\":true,\"rows\":%d}\n", n)
	}
}

// writeCSV streams rows under a header line of column names, which
// encoding/csv quotes; data lines are appended directly. Truncation and
// stream errors are reported as trailing comment lines, since headers are
// long gone by then.
func writeCSV(w io.Writer, src rowSource) {
	names := make([]string, len(src.cols))
	for i, c := range src.cols {
		names[i] = c.Name
	}
	var header bytes.Buffer
	cw := csv.NewWriter(&header)
	cw.Write(names) // a bytes.Buffer never fails a write
	cw.Flush()
	n, err := streamRows(w, src, header.Bytes(), func(buf []byte, r qe.Result) []byte {
		return appendRowCSV(buf, src.cols, r)
	})
	if err != nil {
		return
	}
	if err := src.errFn(); err != nil {
		fmt.Fprintf(w, "# error: %s\n", err)
		return
	}
	if src.truncated() {
		fmt.Fprintf(w, "# truncated after %d rows\n", n)
	}
}

// jsonBody drains src into one FormatJSON body,
// {"columns":…,"rows":[…],"row_count":N,"truncated":b} and a newline. Unlike
// the streaming writers it returns the stream error instead of a trailer, so
// the HTTP layer can still answer with a clean error status.
func jsonBody(src rowSource) ([]byte, error) {
	buf := append([]byte(`{"columns":`), mustJSON(src.cols)...)
	buf = append(buf, `,"rows":[`...)
	keys := jsonKeys(src.cols)
	n := 0
	for b := range src.batches {
		for _, r := range b {
			// Double the body as it fills: append alone grows a large
			// slice by about a quarter, copying a multi-megabyte body
			// several times more.
			if cap(buf)-len(buf) < 1024 {
				buf = slices.Grow(buf, len(buf)+1024)
			}
			if n > 0 {
				buf = append(buf, ',')
			}
			buf = appendRowJSON(buf, src.cols, keys, r)
			n++
		}
	}
	if err := src.errFn(); err != nil {
		return nil, err
	}
	buf = append(buf, `],"row_count":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, `,"truncated":`...)
	buf = strconv.AppendBool(buf, src.truncated())
	return append(buf, "}\n"...), nil
}

// serveRows answers with src in format. csv and ndjson stream under a 200
// and report a late failure in their trailer; json is built whole before
// the status goes out, so a late failure still gets its own status.
func serveRows(rw http.ResponseWriter, format Format, src rowSource) {
	if format == FormatJSON {
		body, err := jsonBody(src)
		if err != nil {
			jsonError(rw, statusForQueryError(err), "%s", err)
			return
		}
		rw.Header().Set("Content-Type", format.ContentType())
		rw.Write(body)
		return
	}
	rw.Header().Set("Content-Type", format.ContentType())
	if format == FormatCSV {
		writeCSV(rw, src)
	} else {
		writeNDJSON(rw, src)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`"encoding error"`)
	}
	return b
}

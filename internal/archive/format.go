package archive

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"sdss/internal/qe"
	"sdss/internal/query"
)

// Format identifies a result-set wire encoding.
type Format string

// The supported wire formats.
const (
	// FormatJSON is a single JSON document: columns, rows as objects with
	// named fields, row count, truncation flag.
	FormatJSON Format = "json"
	// FormatNDJSON streams one JSON object per row as rows arrive — the
	// wire face of the ASAP push. A trailing record carries truncation or
	// error state.
	FormatNDJSON Format = "ndjson"
	// FormatCSV streams comma-separated rows under a header line of the
	// projection's column names.
	FormatCSV Format = "csv"
)

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

// appendValue renders one engine value as a JSON token per its column type.
// IDs and ints render as exact integers; non-finite floats become null.
func appendValue(buf []byte, c query.Column, v float64) []byte {
	switch c.Type {
	case query.TypeID:
		return strconv.AppendUint(buf, uint64(v), 10)
	case query.TypeInt:
		return strconv.AppendInt(buf, int64(v), 10)
	default:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return append(buf, "null"...)
		}
		return strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
}

// csvValue renders one engine value as a CSV field per its column type.
func csvValue(c query.Column, v float64) string {
	switch c.Type {
	case query.TypeID:
		return strconv.FormatUint(uint64(v), 10)
	case query.TypeInt:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
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

// appendRowJSON renders one row as a JSON object with named fields, in
// projection order.
func appendRowJSON(buf []byte, cols []query.Column, r qe.Result) []byte {
	buf = append(buf, '{')
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		nb, _ := json.Marshal(c.Name)
		buf = append(buf, nb...)
		buf = append(buf, ':')
		switch {
		case i >= len(r.Values):
			buf = append(buf, "null"...)
		default:
			if u, ok := cellUint(c, r); ok {
				buf = strconv.AppendUint(buf, u, 10)
			} else {
				buf = appendValue(buf, c, r.Values[i])
			}
		}
	}
	return append(buf, '}')
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

// writeNDJSON streams rows as newline-delimited JSON objects, flushing per
// batch. After the stream ends it emits exactly one trailer record when the
// row cap truncated the stream ({"truncated":true,"rows":N}) or when the
// tree failed mid-stream ({"error":...}).
func writeNDJSON(w io.Writer, src rowSource) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 0, 256)
	n := 0
	for b := range src.batches {
		buf = buf[:0]
		for _, r := range b {
			buf = appendRowJSON(buf, src.cols, r)
			buf = append(buf, '\n')
			n++
		}
		w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := src.errFn(); err != nil {
		fmt.Fprintf(w, "{\"error\":%s}\n", mustJSON(err.Error()))
		return
	}
	if src.truncated() {
		fmt.Fprintf(w, "{\"truncated\":true,\"rows\":%d}\n", n)
	}
}

// writeCSV streams rows under a header line of column names. Truncation and
// stream errors are reported as trailing comment lines, since headers are
// long gone by then.
func writeCSV(w io.Writer, src rowSource) {
	flusher, _ := w.(http.Flusher)
	cw := csv.NewWriter(w)
	header := make([]string, len(src.cols))
	for i, c := range src.cols {
		header[i] = c.Name
	}
	cw.Write(header)
	record := make([]string, len(src.cols))
	n := 0
	for b := range src.batches {
		for _, r := range b {
			for i, c := range src.cols {
				switch {
				case i >= len(r.Values):
					record[i] = ""
				default:
					if u, ok := cellUint(c, r); ok {
						record[i] = strconv.FormatUint(u, 10)
					} else {
						record[i] = csvValue(c, r.Values[i])
					}
				}
			}
			cw.Write(record)
			n++
		}
		cw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	cw.Flush()
	if err := src.errFn(); err != nil {
		fmt.Fprintf(w, "# error: %s\n", err)
		return
	}
	if src.truncated() {
		fmt.Fprintf(w, "# truncated after %d rows\n", n)
	}
}

// jsonDocument is the buffered FormatJSON response envelope.
type jsonDocument struct {
	Columns   []query.Column    `json:"columns"`
	Rows      []json.RawMessage `json:"rows"`
	RowCount  int               `json:"row_count"`
	Truncated bool              `json:"truncated"`
}

// buildJSONDocument drains the source into a single document. Unlike the
// streaming writers it returns the stream error instead of emitting a
// trailer, so the HTTP layer can still answer with a clean error status.
func buildJSONDocument(src rowSource) (*jsonDocument, error) {
	doc := &jsonDocument{Columns: src.cols, Rows: []json.RawMessage{}}
	for b := range src.batches {
		for _, r := range b {
			doc.Rows = append(doc.Rows, json.RawMessage(appendRowJSON(nil, src.cols, r)))
		}
	}
	if err := src.errFn(); err != nil {
		return nil, err
	}
	doc.RowCount = len(doc.Rows)
	doc.Truncated = src.truncated()
	return doc, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`"encoding error"`)
	}
	return b
}

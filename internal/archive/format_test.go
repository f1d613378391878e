package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/qe"
	"sdss/internal/query"
)

// fmtSource builds a rowSource over literal results with controllable
// post-stream state, the way live queries and job rows present themselves
// to the writers.
func fmtSource(cols []query.Column, results []qe.Result, truncated bool, streamErr error) rowSource {
	src := staticSource(cols, results, truncated)
	src.errFn = func() error { return streamErr }
	return src
}

func floatCol(name string) query.Column { return query.Column{Name: name, Type: query.TypeFloat} }

func TestWriteCSVEdgeCases(t *testing.T) {
	idCol := query.Column{Name: "objid", Type: query.TypeID}
	intCol := query.Column{Name: "run", Type: query.TypeInt}
	tests := []struct {
		name      string
		cols      []query.Column
		results   []qe.Result
		truncated bool
		streamErr error
		want      []string // exact output lines, in order
	}{
		{
			name: "quoting of separator and quote characters in headers",
			cols: []query.Column{floatCol(`a,b`), floatCol(`say "r"`)},
			results: []qe.Result{
				{Values: []float64{1.5, 2}},
			},
			want: []string{`"a,b","say ""r"""`, "1.5,2"},
		},
		{
			name: "NaN and infinities render as text fields",
			cols: []query.Column{floatCol("x"), floatCol("y"), floatCol("z")},
			results: []qe.Result{
				{Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}},
			},
			want: []string{"x,y,z", "NaN,+Inf,-Inf"},
		},
		{
			name: "id and int columns render exactly",
			cols: []query.Column{idCol, intCol},
			results: []qe.Result{
				{ObjID: 9007199254740993, Values: []float64{9007199254740993, 745}},
			},
			// 2^53+1 is not representable as float64; the ObjID side-channel
			// must preserve it while the int column rounds.
			want: []string{"objid,run", "9007199254740993,745"},
		},
		{
			name:    "missing values pad as empty fields",
			cols:    []query.Column{floatCol("a"), floatCol("b")},
			results: []qe.Result{{Values: []float64{1}}},
			want:    []string{"a,b", "1,"},
		},
		{
			name:      "truncation marker after the last row",
			cols:      []query.Column{floatCol("a")},
			results:   []qe.Result{{Values: []float64{1}}, {Values: []float64{2}}},
			truncated: true,
			want:      []string{"a", "1", "2", "# truncated after 2 rows"},
		},
		{
			name:      "stream error trailer replaces the truncation marker",
			cols:      []query.Column{floatCol("a")},
			results:   []qe.Result{{Values: []float64{1}}},
			truncated: true,
			streamErr: errors.New("boom"),
			want:      []string{"a", "1", "# error: boom"},
		},
		{
			name: "empty result is just the header",
			cols: []query.Column{floatCol("a")},
			want: []string{"a"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			writeCSV(&sb, fmtSource(tc.cols, tc.results, tc.truncated, tc.streamErr))
			got := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
			if len(got) != len(tc.want) {
				t.Fatalf("got %d lines %q, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestWriteNDJSONEdgeCases(t *testing.T) {
	tests := []struct {
		name      string
		cols      []query.Column
		results   []qe.Result
		truncated bool
		streamErr error
		want      []string
	}{
		{
			name: "non-finite floats become null",
			cols: []query.Column{floatCol("x"), floatCol("y"), floatCol("z")},
			results: []qe.Result{
				{Values: []float64{math.NaN(), math.Inf(1), 2.5}},
			},
			want: []string{`{"x":null,"y":null,"z":2.5}`},
		},
		{
			name: "column names JSON-escape",
			cols: []query.Column{floatCol(`he said "hi"`)},
			results: []qe.Result{
				{Values: []float64{1}},
			},
			want: []string{`{"he said \"hi\"":1}`},
		},
		{
			name:    "missing values become null",
			cols:    []query.Column{floatCol("a"), floatCol("b")},
			results: []qe.Result{{Values: []float64{3}}},
			want:    []string{`{"a":3,"b":null}`},
		},
		{
			name:      "truncation trailer is exactly one record",
			cols:      []query.Column{floatCol("a")},
			results:   []qe.Result{{Values: []float64{1}}, {Values: []float64{2}}},
			truncated: true,
			want:      []string{`{"a":1}`, `{"a":2}`, `{"truncated":true,"rows":2}`},
		},
		{
			name:      "error trailer wins over truncation",
			cols:      []query.Column{floatCol("a")},
			truncated: true,
			streamErr: errors.New(`bad "stuff"`),
			want:      []string{`{"error":"bad \"stuff\""}`},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			writeNDJSON(&sb, fmtSource(tc.cols, tc.results, tc.truncated, tc.streamErr))
			got := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
			if len(got) != len(tc.want) {
				t.Fatalf("got %d lines %q, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("line %d:\n got %s\nwant %s", i, got[i], tc.want[i])
				}
				// Every line must stand alone as valid JSON.
				var v map[string]any
				if err := json.Unmarshal([]byte(got[i]), &v); err != nil {
					t.Errorf("line %d is not valid JSON: %v", i, err)
				}
			}
		})
	}
}

// jsonEnvelope decodes a FormatJSON body.
type jsonEnvelope struct {
	Columns   []query.Column    `json:"columns"`
	Rows      []json.RawMessage `json:"rows"`
	RowCount  int               `json:"row_count"`
	Truncated bool              `json:"truncated"`
}

func TestJSONBodyEdgeCases(t *testing.T) {
	cols := []query.Column{floatCol("x")}
	t.Run("stream error surfaces instead of a document", func(t *testing.T) {
		_, err := jsonBody(fmtSource(cols, nil, false, errors.New("late failure")))
		if err == nil || err.Error() != "late failure" {
			t.Fatalf("err = %v, want late failure", err)
		}
	})
	t.Run("truncation and count flow into the envelope", func(t *testing.T) {
		body, err := jsonBody(fmtSource(cols, []qe.Result{
			{Values: []float64{math.Inf(1)}},
			{Values: []float64{1}},
		}, true, nil))
		if err != nil {
			t.Fatal(err)
		}
		// The body itself must decode: the envelope and every row.
		var doc jsonEnvelope
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("body %s does not decode: %v", body, err)
		}
		if doc.RowCount != 2 || !doc.Truncated {
			t.Fatalf("RowCount %d Truncated %v, want 2 true", doc.RowCount, doc.Truncated)
		}
		if got := string(doc.Rows[0]); got != `{"x":null}` {
			t.Fatalf("Inf row rendered %s", got)
		}
	})
	t.Run("empty result keeps rows as an array", func(t *testing.T) {
		body, err := jsonBody(fmtSource(cols, nil, false, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), `"rows":[]`) {
			t.Fatalf("empty rows marshaled as %s", body)
		}
	})
}

// The reference writers below are the encoding/csv and encoding/json code
// path the typed appenders replaced, kept as the oracle for identical bytes
// on the wire: a json.Marshal of the name per JSON cell, a []string record
// per CSV row through csv.Writer, and a json.RawMessage envelope through
// json.Encoder.

func refUint(c query.Column, r qe.Result) (uint64, bool) {
	if c.Name == "objid" && c.Type == query.TypeID && r.ObjID != 0 {
		return uint64(r.ObjID), true
	}
	return 0, false
}

func refValueJSON(buf []byte, c query.Column, v float64) []byte {
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

func refValueCSV(c query.Column, v float64) string {
	switch c.Type {
	case query.TypeID:
		return strconv.FormatUint(uint64(v), 10)
	case query.TypeInt:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func refRowJSON(cols []query.Column, r qe.Result) []byte {
	buf := []byte{'{'}
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
			if u, ok := refUint(c, r); ok {
				buf = strconv.AppendUint(buf, u, 10)
			} else {
				buf = refValueJSON(buf, c, r.Values[i])
			}
		}
	}
	return append(buf, '}')
}

func refNDJSON(w io.Writer, src rowSource) {
	n := 0
	for b := range src.batches {
		for _, r := range b {
			w.Write(append(refRowJSON(src.cols, r), '\n'))
			n++
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

func refCSV(w io.Writer, src rowSource) {
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
					if u, ok := refUint(c, r); ok {
						record[i] = strconv.FormatUint(u, 10)
					} else {
						record[i] = refValueCSV(c, r.Values[i])
					}
				}
			}
			cw.Write(record)
			n++
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

func refJSON(src rowSource) ([]byte, error) {
	doc := struct {
		Columns   []query.Column    `json:"columns"`
		Rows      []json.RawMessage `json:"rows"`
		RowCount  int               `json:"row_count"`
		Truncated bool              `json:"truncated"`
	}{Columns: src.cols, Rows: []json.RawMessage{}}
	for b := range src.batches {
		for _, r := range b {
			doc.Rows = append(doc.Rows, refRowJSON(src.cols, r))
		}
	}
	if err := src.errFn(); err != nil {
		return nil, err
	}
	doc.RowCount = len(doc.Rows)
	doc.Truncated = src.truncated()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkAgainstReference runs every writer and its reference over fresh
// sources from mk and fails unless their bytes are identical.
func checkAgainstReference(t *testing.T, mk func() rowSource) {
	t.Helper()
	var got, want bytes.Buffer
	writeCSV(&got, mk())
	refCSV(&want, mk())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("csv differs from encoding/csv:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	got.Reset()
	want.Reset()
	writeNDJSON(&got, mk())
	refNDJSON(&want, mk())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("ndjson differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	body, err := jsonBody(mk())
	wantBody, wantErr := refJSON(mk())
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("json error %v, reference %v", err, wantErr)
	}
	if !bytes.Equal(body, wantBody) {
		t.Errorf("json differs from encoding/json:\n got %q\nwant %q", body, wantBody)
	}
}

func TestWritersMatchReference(t *testing.T) {
	idCol := query.Column{Name: "htmid", Type: query.TypeID}
	objCol := query.Column{Name: "objid", Type: query.TypeID}
	intCol := query.Column{Name: "run", Type: query.TypeInt}
	untyped := query.Column{Name: "w"}
	big := uint64(1)<<53 + 1
	tests := []struct {
		name      string
		cols      []query.Column
		batches   []qe.Batch
		truncated bool
		streamErr error
	}{
		{
			name: "every column type",
			cols: []query.Column{idCol, intCol, floatCol("x"), untyped},
			batches: []qe.Batch{
				{{Values: []float64{12345678901, -7, 1.5, 2}}},
				{
					{Values: []float64{0, 0, math.Copysign(0, -1), 1e21}},
					{Values: []float64{1 << 62, 1 << 40, 1e-7, 5e-324}},
					{Values: []float64{3, 2.9, float64(float32(17.1)), math.MaxFloat64}},
				},
			},
		},
		{
			name: "objid above 2^53 through Result.ObjID",
			cols: []query.Column{objCol, idCol, floatCol("r")},
			batches: []qe.Batch{{
				{ObjID: catalog.ObjID(big), Values: []float64{float64(big), float64(big), 20}},
				{ObjID: math.MaxUint64, Values: []float64{float64(uint64(math.MaxUint64)), 1, 20}},
				{Values: []float64{float64(big), 4, 21}}, // ObjID 0 falls back to the value
			}},
		},
		{
			name: "NaN and infinities",
			cols: []query.Column{floatCol("x"), floatCol("y"), floatCol("z"), untyped},
			batches: []qe.Batch{{
				{Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}},
				{Values: []float64{1, math.Inf(-1), math.NaN(), math.Inf(1)}},
			}},
		},
		{
			name: "missing values",
			cols: []query.Column{objCol, intCol, floatCol("b")},
			batches: []qe.Batch{{
				{ObjID: 9, Values: []float64{9, 1}},
				{ObjID: 9, Values: []float64{9}},
				{},
			}},
		},
		{
			name:    "missing value in a single column",
			cols:    []query.Column{floatCol("a")},
			batches: []qe.Batch{{{}, {Values: []float64{1}}, {}}},
		},
		{
			name: "header names that need quoting or escaping",
			cols: []query.Column{
				floatCol("a,b"), floatCol(`say "r"`), floatCol(" lead"), floatCol("\tlead"),
				floatCol("line\r\nbreak"), floatCol("<b>&amp;</b>"), floatCol("δ(ra) Ω"),
				floatCol("\u2028"), floatCol("bad\xffutf8"), floatCol(`\.`), floatCol(""),
				floatCol(`back\slash`), floatCol("ctl\x01"),
			},
			batches: []qe.Batch{{{Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}}}},
		},
		{
			name:      "truncation trailer",
			cols:      []query.Column{floatCol("a")},
			batches:   []qe.Batch{{{Values: []float64{1}}}, {{Values: []float64{2}}}},
			truncated: true,
		},
		{
			name:      "error trailer",
			cols:      []query.Column{floatCol("a")},
			batches:   []qe.Batch{{{Values: []float64{1}}}},
			truncated: true,
			streamErr: errors.New(`bad "stuff" <here>`),
		},
		{
			name: "empty result",
			cols: []query.Column{floatCol("a"), intCol},
		},
		{
			name:    "empty batches",
			cols:    []query.Column{floatCol("a")},
			batches: []qe.Batch{{}, {{Values: []float64{1}}}, {}},
		},
		{
			name:    "no columns",
			batches: []qe.Batch{{{}, {Values: []float64{1}}}},
		},
		{
			// Past flushAt within one batch, as a finished job's rows arrive.
			name:      "one batch larger than the write buffer",
			cols:      exportCols,
			batches:   []qe.Batch{qe.Batch(exportRows(3000))},
			truncated: true,
		},
		{
			name:    "export rows in batches",
			cols:    exportCols,
			batches: splitBatches(exportRows(2000), 256),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, func() rowSource {
				return batchSource(tc.cols, tc.batches, tc.truncated, tc.streamErr)
			})
		})
	}
}

// FuzzWriters checks every writer against the encoding/csv and
// encoding/json reference over random column names and types, values and
// batching. names is split on '|' for the column names; each byte of types
// adds a column (float, int, id, or untyped); vals is read eight bytes to a
// float64 value, row by row, so the last row may be short.
func FuzzWriters(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("objid|ra|r", []byte{2, 0, 0}, bits(float64(1<<53+1), 185.25, math.NaN(), 0, math.Inf(1)), uint64(1<<53+1), uint8(1), false, "")
	f.Add("run|a,b|say \"r\"", []byte{1, 0, 3}, bits(745, 1e21, math.Inf(-1), -3, 1e-7), uint64(0), uint8(3), true, "")
	f.Add(" lead|<&>|δ", []byte{0, 2, 1, 0}, bits(1, 2, 3, 4, 5, 6), uint64(7), uint8(0), true, "boom \"x\"")
	f.Add("", []byte{}, []byte{1, 2, 3}, uint64(0), uint8(2), false, "")
	f.Fuzz(func(t *testing.T, names string, types, vals []byte, objid uint64, batch uint8, truncated bool, errMsg string) {
		if len(types) > 16 || len(vals) > 1<<12 {
			return
		}
		colTypes := []query.ColType{query.TypeFloat, query.TypeInt, query.TypeID, ""}
		parts := strings.Split(names, "|")
		cols := make([]query.Column, len(types))
		for i, ty := range types {
			cols[i] = query.Column{Name: parts[i%len(parts)], Type: colTypes[int(ty)%len(colTypes)]}
		}
		var values []float64
		for len(vals) >= 8 {
			values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(vals)))
			vals = vals[8:]
		}
		var results []qe.Result
		for k := 0; len(values) > 0; k++ {
			w := min(max(len(cols), 1), len(values))
			r := qe.Result{Values: values[:w:w]}
			if objid != 0 {
				r.ObjID = catalog.ObjID(objid + uint64(k))
			}
			results = append(results, r)
			values = values[w:]
		}
		var streamErr error
		if errMsg != "" {
			streamErr = errors.New(errMsg)
		}
		batches := splitBatches(results, int(batch%7)+1)
		checkAgainstReference(t, func() rowSource {
			return batchSource(cols, batches, truncated, streamErr)
		})
	})
}

// failingWriter accepts its first Write and fails every later one, as a
// connection whose client has gone away does.
type failingWriter struct{ calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > 1 {
		return 0, errors.New("connection reset by peer")
	}
	return len(p), nil
}

func TestWritersStopAtFailedWrite(t *testing.T) {
	rows := exportRows(20000)
	sources := map[string]func() rowSource{
		"batches": func() rowSource { return batchSource(exportCols, splitBatches(rows, 256), true, nil) },
		"job":     func() rowSource { return staticSource(exportCols, rows, true) },
	}
	writers := map[string]func(io.Writer, rowSource){"csv": writeCSV, "ndjson": writeNDJSON}
	for wname, write := range writers {
		for sname, mk := range sources {
			fw := &failingWriter{}
			write(fw, mk())
			if fw.calls > 2 {
				t.Errorf("%s over %s: %d Write calls, want at most one after the first failure", wname, sname, fw.calls)
			}
		}
	}
}

// TestWritersAllocateByResponse holds the appenders to a per-response
// allocation budget: the streaming writers allocate the same for 1,000 and
// 10,000 rows, and the JSON body only grows its one buffer.
func TestWritersAllocateByResponse(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random, so encoding/json's allocation counts do not repeat")
	}
	// A collection empties sync.Pool, and encoding/json keeps its encoder
	// state in one: with collections on, the count depends on when they run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rows := exportRows(10000)
	for name, write := range map[string]func(io.Writer, rowSource){"csv": writeCSV, "ndjson": writeNDJSON} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(10, func() {
				write(io.Discard, staticSource(exportCols, rows[:n], false))
			})
		}
		if small, large := allocs(1000), allocs(10000); small != large {
			t.Errorf("%s: %v allocations for 1,000 rows, %v for 10,000: want no per-row allocation", name, small, large)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := jsonBody(staticSource(exportCols, rows, false)); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(len(rows)); perRow >= 0.01 {
		t.Errorf("json: %v allocations for %d rows (%.4f a row), want under 0.01 a row", allocs, len(rows), perRow)
	}
}

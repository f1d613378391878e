package qe

import (
	"context"
	"testing"
	"time"

	"sdss/internal/query"
)

func TestRowsColumns(t *testing.T) {
	e, _, _ := testArchive(t, 500, 7)
	rows, err := e.ExecuteString(context.Background(), "SELECT objid, ra, dec, r FROM tag WHERE r < 20")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	want := []query.Column{
		{Name: "objid", Type: query.TypeID},
		{Name: "ra", Type: query.TypeFloat},
		{Name: "dec", Type: query.TypeFloat},
		{Name: "r", Type: query.TypeFloat},
	}
	if len(cols) != len(want) {
		t.Fatalf("got %d columns, want %d", len(cols), len(want))
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Errorf("column %d = %+v, want %+v", i, cols[i], want[i])
		}
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if len(r.Values) != len(cols) {
			t.Fatalf("row has %d values for %d columns", len(r.Values), len(cols))
		}
	}
}

func TestAggregateColumns(t *testing.T) {
	e, _, _ := testArchive(t, 500, 7)
	rows, err := e.ExecuteString(context.Background(), "SELECT COUNT(*) FROM tag")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	if len(cols) != 1 || cols[0].Name != "count(*)" || cols[0].Type != query.TypeInt {
		t.Errorf("count columns = %+v", cols)
	}

	rows2, err := e.ExecuteString(context.Background(), "SELECT AVG(r) FROM tag")
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if cols := rows2.Columns(); len(cols) != 1 || cols[0].Name != "avg(r)" {
		t.Errorf("avg columns = %+v", cols)
	}
}

func TestExecOptionsLimitTruncates(t *testing.T) {
	e, _, _ := testArchive(t, 2000, 3)
	rows, err := e.ExecuteStringOpts(context.Background(), "SELECT objid FROM tag", ExecOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("limit delivered %d rows, want 10", len(res))
	}
	if !rows.Truncated() {
		t.Error("limited stream not marked truncated")
	}

	// A limit above the result size is not a truncation.
	rows2, err := e.ExecuteStringOpts(context.Background(), "SELECT objid FROM tag", ExecOptions{Limit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	all, err := rows2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no rows at all")
	}
	if rows2.Truncated() {
		t.Error("unlimited stream marked truncated")
	}
}

func TestExecOptionsOffset(t *testing.T) {
	e, _, _ := testArchive(t, 1000, 5)
	const q = "SELECT objid, r FROM tag ORDER BY r"
	full := mustCollect(t, e, q)
	if len(full) < 10 {
		t.Fatalf("only %d rows", len(full))
	}
	rows, err := e.ExecuteStringOpts(context.Background(), q, ExecOptions{Offset: 4, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	page, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 3 {
		t.Fatalf("page has %d rows, want 3", len(page))
	}
	for i, r := range page {
		if r.ObjID != full[i+4].ObjID {
			t.Errorf("page row %d = %d, want %d", i, r.ObjID, full[i+4].ObjID)
		}
	}
}

func TestExecOptionsTimeout(t *testing.T) {
	e, _, _ := testArchive(t, 2000, 9)
	rows, err := e.ExecuteStringOpts(context.Background(), "SELECT objid FROM photoobj", ExecOptions{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rows.Collect()
	if err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestCloseIsIdempotentAndDrains(t *testing.T) {
	e, _, _ := testArchive(t, 2000, 11)
	rows, err := e.ExecuteString(context.Background(), "SELECT objid FROM photoobj")
	if err != nil {
		t.Fatal(err)
	}
	// Close immediately, before reading anything; it must not hang and a
	// second Close must be a no-op.
	done := make(chan struct{})
	go func() {
		rows.Close()
		rows.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	// After Close, C is closed and Err is clean (cancel is not an error).
	if _, ok := <-rows.C; ok {
		t.Error("C still delivering after Close")
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after Close = %v", err)
	}
}

func TestCloseMidStream(t *testing.T) {
	e, _, _ := testArchive(t, 4000, 13)
	e.BatchSize = 8 // many batches so the producer outlives the first read
	rows, err := e.ExecuteString(context.Background(), "SELECT objid FROM photoobj")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for b := range rows.C {
		got += len(b)
		if got > 16 {
			rows.Close() // must drain and stop the range loop promptly
		}
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after mid-stream Close = %v", err)
	}
}

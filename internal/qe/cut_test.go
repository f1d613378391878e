package qe

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLimitClipTimeoutReportsErrTimeout lets the deadline lapse while the
// delivery loop holds a batch clipped to ExecOptions.Limit and the consumer
// has not read yet: the clipped rows are dropped, so the stream must
// report ErrTimeout instead of passing a short page for a complete one.
func TestLimitClipTimeoutReportsErrTimeout(t *testing.T) {
	e, _, _ := testArchive(t, 2000, 9)
	e.batchRows = 8
	// Four 8-row batches fill the delivered stream's buffer; the fifth is
	// clipped to the last 3 rows of the page and blocks until the deadline.
	rows, err := e.ExecuteStringOpts(context.Background(), "SELECT objid FROM photoobj ORDER BY r",
		ExecOptions{Limit: 35, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	got, err := rows.Collect()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %d of 35 rows, err = %v (truncated %v), want ErrTimeout", len(got), err, rows.Truncated())
	}
}

// TestCutContractEveryOperatorShape holds every operator shape to the cut
// contract: a consumer that stops reading until the deadline lapsed must
// never see a short stream with a nil Err. Each answer spans far more
// batches than the channels between the producers and the consumer can
// buffer, so a producer is still blocked sending when the deadline fires
// and the stream must report ErrTimeout.
func TestCutContractEveryOperatorShape(t *testing.T) {
	e, _, _ := joinArchive(t, 8000, 16, 1)
	e.Workers = 2
	// Every channel in a tree holds at most a handful of batches; 64
	// batches is far past what a shape's whole chain can absorb.
	const blocked = 64
	shapes := []struct {
		name, q   string
		batchRows int
	}{
		{"scan", "SELECT objid FROM photoobj", 4},
		{"order", "SELECT objid, r FROM photoobj ORDER BY r", 4},
		{"union", "SELECT objid FROM tag WHERE r < 21 UNION SELECT objid FROM tag WHERE g < 21", 4},
		{"intersect", "SELECT objid FROM photoobj INTERSECT SELECT objid FROM tag", 4},
		{"minus", "SELECT objid FROM photoobj MINUS SELECT objid FROM tag WHERE r < 19", 4},
		{"limit", "SELECT objid FROM photoobj LIMIT 1000", 4},
		// Spectra are rare, so the join's pairs leave one per batch.
		{"hashjoin", "SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid", 1},
		{"neighbors", "SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 30) WHERE a.objid < b.objid", 4},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			e.batchRows = s.batchRows
			want := len(mustCollect(t, e, s.q))
			if want < blocked*s.batchRows {
				t.Fatalf("answer has %d rows, want >= %d so the producer is still blocked at the deadline", want, blocked*s.batchRows)
			}
			rows, err := e.ExecuteStringOpts(context.Background(), s.q, ExecOptions{Timeout: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(150 * time.Millisecond)
			got, err := rows.Collect()
			if err == nil && len(got) != want {
				t.Fatalf("stream ended after %d of %d rows with a nil Err", len(got), want)
			}
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %d of %d rows, err = %v, want ErrTimeout", len(got), want, err)
			}
		})
	}
}

package qe

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
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
		{"topn", "SELECT objid, r FROM photoobj ORDER BY r LIMIT 1000", 4},
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

// TestCutAggregateSendsNoRow runs aggregates under a deadline that has
// lapsed before the scan starts. A unit that sees the done context skips
// its containers, so any row would be a partial aggregate: the stream must
// end with ErrTimeout and no row. Both aggregate producers are covered,
// the scan's fold and runAggregate over a join.
func TestCutAggregateSendsNoRow(t *testing.T) {
	e, _, _ := joinArchive(t, 8000, 16, 1)
	e.Workers = 2
	for _, s := range []struct{ name, q string }{
		{"fold", "SELECT COUNT(*) FROM photoobj"},
		{"join", "SELECT COUNT(*) FROM photoobj p JOIN specobj s ON p.objid = s.objid"},
	} {
		t.Run(s.name, func(t *testing.T) {
			want := mustCollect(t, e, s.q)[0].Values[0]
			timeouts := 0
			for i := 0; i < 100; i++ {
				rows, err := e.ExecuteStringOpts(context.Background(), s.q, ExecOptions{Timeout: time.Nanosecond})
				if err != nil {
					t.Fatal(err)
				}
				got, err := rows.Collect()
				switch {
				case errors.Is(err, ErrTimeout):
					timeouts++
					if len(got) != 0 {
						t.Fatalf("run %d: ErrTimeout next to %d row(s), first %v (complete answer %v)", i, len(got), got[0].Values, want)
					}
				case err != nil:
					t.Fatalf("run %d: err = %v", i, err)
				case len(got) != 1 || got[0].Values[0] != want:
					t.Fatalf("run %d: nil Err with rows %v, want the complete answer %v", i, got, want)
				}
			}
			if timeouts == 0 {
				t.Fatal("no run timed out; the test exercised no cut")
			}
		})
	}
}

// TestCutMarksOnlyInHelpers holds the cut contract by construction: only
// Rows.send and Rows.stop may mark a stream interrupted, so every producer
// must go through them. It parses the package's non-test files and fails
// on any of the four drop-point shapes outside those two methods: a write
// to an interrupted flag, a select case receiving from Done(), an Err() !=
// nil check in a function that mentions Batch, and a channel send that is
// not a comm of a select with a default case. A hand-written site fails
// even when it marks correctly. The send shape is what keeps every fan-out
// cancellable: a send that can block goes through Rows.send, which selects
// on the context, wherever it runs (a spawned goroutine or a helper it
// calls alike).
func TestCutMarksOnlyInHelpers(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	inHelpers := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			helper := isCutHelper(fn)
			batch := false
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "Batch" {
					batch = true
				}
				return true
			})
			// Sends that are comms of a select with a default never block.
			tries := map[ast.Stmt]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var shape string
				switch n := n.(type) {
				case *ast.SelectStmt:
					if hasDefault(n) {
						for _, cl := range n.Body.List {
							tries[cl.(*ast.CommClause).Comm] = true
						}
					}
				case *ast.SendStmt:
					if !tries[n] {
						shape = "sends on a channel outside a select with a default"
					}
				case *ast.CallExpr:
					// Store, Swap or CompareAndSwap: anything but Load writes.
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name != "Load" && selects(sel.X, "interrupted") {
						shape = "writes the interrupted mark"
					}
				case *ast.CommClause:
					if recvsDone(n.Comm) {
						shape = "selects on Done()"
					}
				case *ast.BinaryExpr:
					if id, ok := n.Y.(*ast.Ident); ok && id.Name == "nil" && n.Op == token.NEQ && batch && isCall(n.X, "Err") {
						shape = "checks Err() != nil beside batches"
					}
				}
				switch {
				case shape == "":
				case helper:
					inHelpers++
				default:
					t.Errorf("%s: %s %s; send through Rows.send and stop through Rows.stop", fset.Position(n.Pos()), fn.Name.Name, shape)
				}
				return true
			})
		}
	}
	// send sends, marks and selects on Done(); stop marks.
	if inHelpers < 4 {
		t.Fatalf("found %d drop-point shapes in Rows.send and Rows.stop, want 4: the walk no longer recognizes them", inHelpers)
	}
}

// hasDefault reports whether a select has a default case.
func hasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// isCutHelper reports whether fn is Rows.send or Rows.stop.
func isCutHelper(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || (fn.Name.Name != "send" && fn.Name.Name != "stop") {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Rows"
}

// selects reports whether x is a selector ending in field name.
func selects(x ast.Expr, name string) bool {
	sel, ok := x.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// isCall reports whether x calls a method named name.
func isCall(x ast.Expr, name string) bool {
	call, ok := x.(*ast.CallExpr)
	return ok && selects(call.Fun, name)
}

// recvsDone reports whether a select comm statement receives from a Done()
// call, with or without assigning the received value.
func recvsDone(comm ast.Stmt) bool {
	var x ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		x = s.X
	case *ast.AssignStmt:
		x = s.Rhs[0]
	}
	u, ok := x.(*ast.UnaryExpr)
	return ok && u.Op == token.ARROW && isCall(u.X, "Done")
}

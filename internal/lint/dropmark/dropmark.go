// Package dropmark enforces the timeout-visibility invariant of the query
// engine's streaming tree (internal/qe): when a node stops mid-production
// because the context fired, it must record rows.interrupted.Store(true)
// before bailing out. ExecutePlan reports ErrTimeout only when the deadline
// lapsed AND some node was actually cut off — a drop point that forgets the
// mark makes timeouts silently vanish (the stream just ends short, and the
// client can't tell a complete result from a truncated one).
//
// The analyzer runs in packages that define the idiom — a Rows struct with
// an `interrupted` field — and checks the two known drop-point shapes:
//
//   - in a select that sends a Batch, the case receiving from
//     <ctx>.Done() drops the batch it was sending and must call
//     interrupted.Store(true);
//   - an `if <ctx>.Err() != nil { ... return }` early-exit inside a
//     function that handles batches (sends on a channel, or touches a
//     Batch or a channel of batches) must call interrupted.Store(true)
//     before returning.
//
// Drops that are genuinely post-completion (limit reached, everything
// delivered) carry //lint:skylint-ignore dropmark <reason>.
package dropmark

import (
	"go/ast"
	"go/token"
	"go/types"

	"sdss/internal/lint/analysis"
)

// Analyzer is the dropmark pass.
var Analyzer = &analysis.Analyzer{
	Name: "dropmark",
	Doc:  "mid-production drop points must set rows.interrupted before abandoning the stream",
	Run:  run,
}

// definesRowsIdiom reports whether the package declares a struct type named
// Rows with an `interrupted` field — the structural signature of the
// streaming engine.
func definesRowsIdiom(pkg *types.Package) bool {
	obj := pkg.Scope().Lookup("Rows")
	if obj == nil {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "interrupted" {
			return true
		}
	}
	return false
}

// isDoneRecv reports whether the comm statement receives from a call to
// Done() on a context.Context.
func isDoneRecv(info *types.Info, comm ast.Stmt) bool {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	ue, ok := recv.(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	call, ok := ue.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done" && isContext(info.TypeOf(sel.X))
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// isErrNilCheck reports whether cond is `<ctx>.Err() != nil` on a
// context.Context.
func isErrNilCheck(info *types.Info, cond ast.Expr) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	call, lit := be.X, be.Y
	if isNil(call) {
		call, lit = be.Y, be.X
	}
	if !isNil(lit) {
		return false
	}
	ce, ok := call.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ce.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Err" && isContext(info.TypeOf(sel.X))
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// marksInterrupted reports whether the subtree contains
// <x>.interrupted.Store(true).
func marksInterrupted(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Store" {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "interrupted" {
			return true
		}
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "true" {
				found = true
			}
		}
		return true
	})
	return found
}

// isBatch reports whether t is a defined slice type named Batch (qe.Batch
// on the real tree, structural doubles in fixtures) or a channel of one.
func isBatch(t types.Type) bool {
	if t == nil {
		return false
	}
	if ch, ok := t.Underlying().(*types.Chan); ok {
		t = ch.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Batch" {
		return false
	}
	_, isSlice := named.Underlying().(*types.Slice)
	return isSlice
}

// producesBatches reports whether the function body sends on a channel or
// touches a batch — i.e. participates in the streaming tree.
func producesBatches(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case ast.Expr:
			found = isBatch(info.TypeOf(n))
		}
		return !found
	})
	return found
}

// sendsBatch reports whether one of the select's cases sends on a channel
// of batches.
func sendsBatch(info *types.Info, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if send, ok := cl.(*ast.CommClause).Comm.(*ast.SendStmt); ok && isBatch(info.TypeOf(send.Chan)) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !definesRowsIdiom(pass.Pkg) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			body := funcBody(n)
			if body == nil {
				return true
			}
			checkBody(pass, body)
			return true
		})
	}
	return nil
}

func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// checkBody examines one function body's drop points. Nested function
// literals are visited by the outer Inspect separately, but their drop
// points would be double-reported here, so literals are skipped in this
// walk.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	produces := producesBatches(pass.TypesInfo, body)
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectStmt:
				if !sendsBatch(pass.TypesInfo, n) {
					return true
				}
				for _, cl := range n.Body.List {
					cc := cl.(*ast.CommClause)
					if cc.Comm == nil || !isDoneRecv(pass.TypesInfo, cc.Comm) {
						continue
					}
					if !marksInterrupted(&ast.BlockStmt{List: cc.Body}) {
						pass.Reportf(cc.Pos(),
							"cancellation drop point abandons a batch send without rows.interrupted.Store(true); the timeout will not surface")
					}
				}
			case *ast.IfStmt:
				if !produces || !isErrNilCheck(pass.TypesInfo, n.Cond) {
					return true
				}
				if !endsInReturn(n.Body) {
					return true
				}
				if !marksInterrupted(n.Body) {
					pass.Reportf(n.Pos(),
						"context-cancelled early return abandons a producing stream without rows.interrupted.Store(true)")
				}
			}
			return true
		})
	}
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

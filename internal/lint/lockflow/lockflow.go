// Package lockflow is the lock-dataflow machinery behind the lockheld
// analyzer: a linear held-set walk over function bodies, a stable identity
// scheme for mutexes, and a classifier for operations that can park the
// goroutine.
//
// Lock identity is type-scoped for fields (`pkg.Store.mu` names the mu field
// of every Store value — lock-order discipline is a property of the type's
// protocol, not one instance) and instance-scoped for locals and package
// variables. The held-set walk is deliberately simple flow analysis:
// straight-line statements thread one mutable set, branches fork copies,
// and a lock released inside a non-terminating branch is considered
// released afterwards. Deferred unlocks keep their lock held to function
// end, which is the point of deferring them. `go` statements and function
// literals are skipped — they run on other goroutines or at other times
// and are analyzed as functions in their own right by the analyzers.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"sdss/internal/lint/analysis"
)

// Op classifies a call as a sync lock-protocol operation.
type Op int

const (
	OpNone Op = iota
	OpLock
	OpUnlock
	OpRLock
	OpRUnlock
	// OpCondWait is sync.Cond.Wait: it blocks, but atomically releases the
	// Cond's locker first — analyzers exempt it when that is the only held
	// lock.
	OpCondWait
)

// LockOp reports whether call is a sync.Mutex/RWMutex/Cond protocol call,
// returning the identity of the lock (or Cond) it operates on. Promoted
// methods on embedded mutexes resolve too; their identity is the embedding
// value's.
func LockOp(info *types.Info, call *ast.CallExpr) (string, Op) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", OpNone
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", OpNone
	}
	var op Op
	switch analysis.FuncKey(fn) {
	case "sync.Mutex.Lock", "sync.RWMutex.Lock":
		op = OpLock
	case "sync.Mutex.Unlock", "sync.RWMutex.Unlock":
		op = OpUnlock
	case "sync.RWMutex.RLock":
		op = OpRLock
	case "sync.RWMutex.RUnlock":
		op = OpRUnlock
	case "sync.Cond.Wait":
		op = OpCondWait
	default:
		return "", OpNone
	}
	return LockID(info, sel.X), op
}

// LockID names the lock a receiver expression denotes: "pkg.Type.field"
// for struct-field locks, "pkg.name" for package-level ones, a
// position-disambiguated "pkg.name@off" for locals, and "pkg.Type" for a
// value with an embedded mutex. Unknown shapes return "" (not tracked).
func LockID(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if n := namedOf(info.TypeOf(e.X)); n != nil {
			return qual(n) + "." + e.Sel.Name
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return v.Pkg().Path() + "." + v.Name() + "@" + strconv.Itoa(int(v.Pos()))
		}
	}
	if n := namedOf(info.TypeOf(e)); n != nil {
		return qual(n)
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func qual(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// Visit receives each interesting node — calls, sends, receives, selects,
// range-over-channel — with the lock set held on entry to it (acquisition
// sites keyed by lock identity). For a lock acquisition the set does not
// yet include the lock being acquired.
type Visit func(n ast.Node, held map[string]token.Pos)

// Walk runs the held-set walk over one declared function or literal body.
func Walk(info *types.Info, body *ast.BlockStmt, visit Visit) {
	w := &walker{info: info, visit: visit}
	held := map[string]token.Pos{}
	for _, s := range body.List {
		w.stmt(s, held)
	}
}

type walker struct {
	info  *types.Info
	visit Visit
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// stmt threads held through one statement, mutating it for linear flow.
func (w *walker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, op := LockOp(w.info, call); op != OpNone {
				w.visit(call, held)
				switch op {
				case OpLock, OpRLock:
					if id != "" {
						held[id] = call.Pos()
					}
				case OpUnlock, OpRUnlock:
					delete(held, id)
				}
				// Still scan the receiver expression for nested events.
				w.expr(call.Fun, held)
				return
			}
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		if _, op := LockOp(w.info, s.Call); op == OpUnlock || op == OpRUnlock {
			return // deferred unlock: held to function end, by design
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// Runs on this goroutine at return, with (approximately) the
			// locks held here; releases inside stay local.
			inner := clone(held)
			for _, st := range lit.Body.List {
				w.stmt(st, inner)
			}
			for _, arg := range s.Call.Args {
				w.expr(arg, held)
			}
			return
		}
		w.expr(s.Call, held)
	case *ast.GoStmt:
		return
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st, held)
		}
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		w.branch(s.Body, held)
		if s.Else != nil {
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				w.branch(blk, held)
			} else {
				w.stmt(s.Else, clone(held))
			}
		}
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		inner := clone(held)
		w.stmt(s.Body, inner)
		w.stmt(s.Post, inner)
	case *ast.RangeStmt:
		if t := w.info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.visit(s, held)
			}
		}
		w.expr(s.X, held)
		w.stmt(s.Body, clone(held))
	case *ast.SelectStmt:
		w.visit(s, held)
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			inner := clone(held)
			w.comm(cc.Comm, inner)
			for _, st := range cc.Body {
				w.stmt(st, inner)
			}
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.expr(s.Tag, held)
		for _, cl := range s.Body.List {
			inner := clone(held)
			for _, st := range cl.(*ast.CaseClause).Body {
				w.stmt(st, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		for _, cl := range s.Body.List {
			inner := clone(held)
			for _, st := range cl.(*ast.CaseClause).Body {
				w.stmt(st, inner)
			}
		}
	case *ast.SendStmt:
		w.visit(s, held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if n == s {
				return true
			}
			if st, ok := n.(ast.Stmt); ok {
				w.stmt(st, held)
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, held)
				return false
			}
			return true
		})
	}
}

// branch walks a conditional block on a fork of held; if the block falls
// through (does not terminate), locks it released are released afterwards.
func (w *walker) branch(body *ast.BlockStmt, held map[string]token.Pos) {
	inner := clone(held)
	w.stmt(body, inner)
	if terminates(body) {
		return
	}
	for id := range held {
		if _, still := inner[id]; !still {
			delete(held, id)
		}
	}
}

// terminates reports whether a block's last statement leaves the enclosing
// flow (return, break/continue/goto, panic).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// expr scans an expression for events without mutating held.
func (w *walker) expr(e ast.Expr, held map[string]token.Pos) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return
	case *ast.CallExpr:
		w.visit(e, held)
		w.expr(e.Fun, held)
		for _, arg := range e.Args {
			w.expr(arg, held)
		}
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.visit(e, held)
		}
		w.expr(e.X, held)
	default:
		ast.Inspect(e, func(n ast.Node) bool {
			if n == e {
				return true
			}
			if sub, ok := n.(ast.Expr); ok {
				w.expr(sub, held)
				return false
			}
			return true
		})
	}
}

// comm walks a select communication: the select guards the operation
// itself, so only operand sub-expressions carry events.
func (w *walker) comm(comm ast.Stmt, held map[string]token.Pos) {
	switch s := comm.(type) {
	case nil:
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.ExprStmt:
		if ue, ok := s.X.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			w.expr(ue.X, held)
			return
		}
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				w.expr(ue.X, held)
				continue
			}
			w.expr(rhs, held)
		}
	}
}

// Blocking classifies whether node n — as visited by Walk — can park the
// goroutine, using function summaries for calls. body is the declared
// function body enclosing n (for the proven-buffered send exemption).
// sync.Cond.Wait is NOT blocking here; callers see it via LockOp and apply
// the held-count exemption themselves.
func Blocking(info *types.Info, sums *analysis.Summaries, body *ast.BlockStmt, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		if analysis.ProvenBuffered(info, body, n) {
			return "", false
		}
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				return "", false
			}
		}
		return "select with no default case", true
	case *ast.RangeStmt:
		return "range over channel", true
	case *ast.CallExpr:
		if _, op := LockOp(info, n); op != OpNone {
			return "", false
		}
		fn, facts := sums.Callee(info, n)
		if fn == nil || facts == nil || !facts.MayBlock {
			return "", false
		}
		return "call to " + analysis.FuncKey(fn) + ", which may block (" + facts.BlockWhy + ")", true
	}
	return "", false
}

// FuncBodies yields every declared function and function literal in the
// files, with a printable name for diagnostics. decl is the enclosing
// declared function's body (the body itself for declarations) — pass it to
// Blocking so the proven-buffered send exemption can see the channel's
// make site even from inside a literal.
func FuncBodies(files []*ast.File, visit func(name string, body, decl *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if rn := recvTypeName(fd.Recv.List[0].Type); rn != "" {
					name = rn + "." + name
				}
			}
			visit(name, fd.Body, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(name+" (func literal)", lit.Body, fd.Body)
				}
				return true
			})
		}
	}
}

// recvTypeName extracts the receiver's type name syntactically.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok { // generic receiver
		e = ix.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

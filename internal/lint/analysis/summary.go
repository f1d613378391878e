package analysis

// The function-summary layer: per-function facts computed bottom-up over the
// call graph, so analyzers can follow a property through a call instead of
// stopping (or worse, guessing) at the call site. Facts are computed for
// every declared function in a package after type-checking, with callee
// facts drawn from (a) the same package (iterated to a fixed point, so
// mutual recursion converges), (b) already-summarized dependency packages —
// the standalone loader processes packages in import order, and the vettool
// driver serializes summaries into go vet's per-package .vetx facts files —
// and (c) a small built-in table for the handful of known-blocking stdlib
// calls (sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep).
//
// Summaries are deliberately optimistic about what they cannot see: a call
// through a function value or interface method contributes no blocking
// facts (flow tracking for function values is out of scope), and a
// function literal's body is not folded into its enclosing function (the
// closure may run on a different goroutine entirely).

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// FuncFacts is the summary one function exports to its callers.
type FuncFacts struct {
	// MayBlock: some path through the function parks the goroutine on a
	// channel operation, a no-default select, sync.Cond.Wait,
	// sync.WaitGroup.Wait, or time.Sleep — directly or through a callee.
	// Plain mutex acquisition is deliberately NOT MayBlock: bounded leaf
	// critical sections are the lockheld analyzer's domain. Neither is a
	// send provably buffered to its send count (see provenBuffered).
	MayBlock bool   `json:"may_block,omitempty"`
	BlockWhy string `json:"block_why,omitempty"`
}

// builtinFacts covers the stdlib calls whose blocking behavior the layer
// must know without source: export data carries no bodies to summarize.
var builtinFacts = map[string]*FuncFacts{
	"sync.WaitGroup.Wait": {MayBlock: true, BlockWhy: "sync.WaitGroup.Wait"},
	"sync.Cond.Wait":      {MayBlock: true, BlockWhy: "sync.Cond.Wait"},
	"time.Sleep":          {MayBlock: true, BlockWhy: "time.Sleep"},
}

// FuncKey is the canonical cross-package name facts are keyed by:
// pkgpath.Func for package functions, pkgpath.Type.Method for methods
// (pointer and value receivers collapse — ownership of the fact set is the
// declaration, not the method set).
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed && fn.Pkg() != nil {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
		return fn.Name() // interface method expr on unnamed type; never summarized
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Summaries is a lookup view over function facts: a package's own functions
// layered over its dependencies' imported summaries and the builtin table.
type Summaries struct {
	fns  map[string]*FuncFacts
	deps *Summaries
}

// NewSummaries returns an empty fact set (lookups fall through to builtins).
func NewSummaries() *Summaries { return &Summaries{fns: map[string]*FuncFacts{}} }

// Lookup returns the facts for fn, or nil when nothing is known.
func (s *Summaries) Lookup(fn *types.Func) *FuncFacts {
	if fn == nil {
		return nil
	}
	return s.lookupKey(FuncKey(fn))
}

// LookupKey returns the facts stored under a canonical function key (see
// FuncKey), or nil when nothing is known.
func (s *Summaries) LookupKey(key string) *FuncFacts {
	if s == nil {
		return builtinFacts[key]
	}
	return s.lookupKey(key)
}

func (s *Summaries) lookupKey(key string) *FuncFacts {
	for cur := s; cur != nil; cur = cur.deps {
		if f, ok := cur.fns[key]; ok {
			return f
		}
	}
	return builtinFacts[key]
}

// Callee resolves a call expression to its static callee and facts. A nil
// *types.Func means the call goes through a function value or a conversion;
// a nil *FuncFacts with a non-nil callee means no summary is known
// (interface method, or a package outside the summarized set).
func (s *Summaries) Callee(info *types.Info, call *ast.CallExpr) (*types.Func, *FuncFacts) {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return nil, nil
	}
	if s == nil {
		return fn, builtinFacts[FuncKey(fn)]
	}
	return fn, s.lookupKey(FuncKey(fn))
}

// CalleeFunc resolves the static callee of a call, or nil for calls through
// function values and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Encode serializes the view's own layer (not deps) for the vetx facts
// file, deterministically.
func (s *Summaries) Encode() ([]byte, error) {
	keys := make([]string, 0, len(s.fns))
	for k := range s.fns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make(map[string]*FuncFacts, len(keys))
	for _, k := range keys {
		ordered[k] = s.fns[k]
	}
	return json.MarshalIndent(ordered, "", "\t")
}

// DecodeSummaries parses a serialized fact layer on top of deps. Empty or
// nil data decodes to an empty layer: pre-summary vetx files stay readable.
func DecodeSummaries(data []byte, deps *Summaries) (*Summaries, error) {
	s := &Summaries{fns: map[string]*FuncFacts{}, deps: deps}
	if len(data) == 0 {
		return s, nil
	}
	if err := json.Unmarshal(data, &s.fns); err != nil {
		return nil, fmt.Errorf("decoding function summaries: %w", err)
	}
	return s, nil
}

// MergeSummaries flattens the given views into one layer, earlier views
// winning on key collisions (which only happen when two views share a
// dependency, where the facts are identical anyway).
func MergeSummaries(views ...*Summaries) *Summaries {
	m := NewSummaries()
	for _, v := range views {
		mergeInto(m, v)
	}
	return m
}

// ComputeSummaries derives facts for every function declared in the
// package's files and returns a view layering them over deps. Facts over
// the intra-package call graph iterate to a fixed point, so recursion and
// declaration order do not matter.
func ComputeSummaries(fset *token.FileSet, files []*ast.File, info *types.Info, deps *Summaries) *Summaries {
	own := &Summaries{fns: map[string]*FuncFacts{}, deps: deps}
	type declFn struct {
		key  string
		decl *ast.FuncDecl
	}
	var decls []declFn
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, declFn{FuncKey(fn), fd})
		}
	}
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, d := range decls {
			w := &factWalker{fset: fset, info: info, sums: own, body: d.decl.Body}
			w.walk(d.decl.Body)
			prev := own.fns[d.key]
			if prev == nil || *prev != w.facts {
				f := w.facts
				own.fns[d.key] = &f
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return own
}

// factWalker computes one function's facts in one pass over its body.
type factWalker struct {
	fset  *token.FileSet
	info  *types.Info
	sums  *Summaries
	body  *ast.BlockStmt
	facts FuncFacts
}

func (w *factWalker) posStr(pos token.Pos) string {
	p := w.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func (w *factWalker) blocking(pos token.Pos, why string) {
	if !w.facts.MayBlock {
		w.facts.MayBlock = true
		w.facts.BlockWhy = why + " at " + w.posStr(pos)
	}
}

// walk visits one node.
func (w *factWalker) walk(n ast.Node) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return // runs in its own context; not folded into the encloser
	case *ast.GoStmt:
		return // a different goroutine's facts
	case *ast.DeferStmt:
		// Deferred work runs on this goroutine before the function returns.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			for _, st := range lit.Body.List {
				w.walk(st)
			}
			for _, arg := range n.Call.Args {
				w.walk(arg)
			}
			return
		}
		w.walk(n.Call)
		return
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range n.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blocking(n.Select, "select with no default case")
		}
		for _, cl := range n.Body.List {
			cc := cl.(*ast.CommClause)
			w.walkComm(cc.Comm)
			for _, st := range cc.Body {
				w.walk(st)
			}
		}
		return
	case *ast.SendStmt:
		if !w.provenBuffered(n) {
			w.blocking(n.Arrow, "channel send")
		}
		w.walk(n.Value)
		return
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.blocking(n.OpPos, "channel receive")
		}
		w.walk(n.X)
		return
	case *ast.RangeStmt:
		if t := w.info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.blocking(n.For, "range over channel")
			}
		}
		w.walk(n.X)
		w.walk(n.Body)
		return
	case *ast.CallExpr:
		w.walkCall(n)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		w.walk(c)
		return false
	})
}

// walkComm visits a select comm statement: the select itself decides
// whether the operation blocks, so neither a comm send nor a comm receive
// is blocking on its own, but their operand expressions still carry events.
func (w *factWalker) walkComm(comm ast.Stmt) {
	switch s := comm.(type) {
	case nil:
	case *ast.SendStmt:
		w.walk(s.Value)
		w.walk(s.Chan)
	case *ast.ExprStmt:
		if ue, ok := s.X.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			w.walk(ue.X)
			return
		}
		w.walk(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				w.walk(ue.X)
				continue
			}
			w.walk(rhs)
		}
	}
}

// walkCall folds a call's events into the facts: the callee's summary, if
// one is known. Calls through function values, interface methods and
// unsummarized packages contribute nothing (the optimistic direction).
func (w *factWalker) walkCall(call *ast.CallExpr) {
	if fn, facts := w.sums.Callee(w.info, call); facts != nil && facts.MayBlock {
		w.blocking(call.Lparen, "call to "+FuncKey(fn)+" ("+facts.BlockWhy+")")
	}
	for _, arg := range call.Args {
		w.walk(arg)
	}
	w.walk(call.Fun)
}

// builtinName returns the name of a Go builtin call, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

// provenBuffered reports whether a send can be statically shown never to
// block: its channel is a local made once with make(chan T, len(xs)), this
// is the only send site to that channel, and the send executes at most once
// per iteration of a single `range xs` loop — the "completion send buffered
// to the fan-out width" idiom (the river exchange tests). Function literals
// crossed on the way up must be immediately invoked (go/defer/call), so
// they run at most once per crossing.
func (w *factWalker) provenBuffered(send *ast.SendStmt) bool {
	return ProvenBuffered(w.info, w.body, send)
}

// ProvenBuffered is the shared buffered-send proof; body is the declared
// function body enclosing the send. See provenBuffered for the shape.
func ProvenBuffered(info *types.Info, body *ast.BlockStmt, send *ast.SendStmt) bool {
	chID, ok := send.Chan.(*ast.Ident)
	if !ok {
		return false
	}
	chObj := info.Uses[chID]
	if chObj == nil {
		return false
	}
	// One definition: ch := make(chan T, len(xs)); no other assignment.
	var capArg ast.Expr
	defs := 0
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[id] != chObj && info.Uses[id] != chObj {
				continue
			}
			defs++
			if i < len(as.Rhs) {
				if mk, ok := as.Rhs[i].(*ast.CallExpr); ok && builtinCallNamed(info, mk, "make") && len(mk.Args) == 2 {
					capArg = mk.Args[1]
				}
			}
		}
		return true
	})
	if defs != 1 || capArg == nil {
		return false
	}
	lenCall, ok := capArg.(*ast.CallExpr)
	if !ok || !builtinCallNamed(info, lenCall, "len") || len(lenCall.Args) != 1 {
		return false
	}
	xsBase, xsField, ok := widthOperand(info, lenCall.Args[0])
	if !ok {
		return false
	}
	// This must be the only send site to the channel.
	sends := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok {
			if id, ok := s.Chan.(*ast.Ident); ok && info.Uses[id] == chObj {
				sends++
			}
		}
		return true
	})
	if sends != 1 {
		return false
	}
	// Climb from the send to the body: exactly one loop, a `range xs`, and
	// any function literal crossed is immediately invoked.
	parents := buildParents(body)
	var loops []ast.Node
	for n := ast.Node(send); n != nil && n != body; n = parents[n] {
		switch p := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, p)
		case *ast.RangeStmt:
			loops = append(loops, p)
		case *ast.FuncLit:
			par := parents[p]
			ok := false
			switch pp := par.(type) {
			case *ast.GoStmt:
				ok = pp.Call.Fun == p
			case *ast.DeferStmt:
				ok = pp.Call.Fun == p
			case *ast.CallExpr:
				ok = pp.Fun == p
			}
			if !ok {
				return false
			}
		}
	}
	if len(loops) != 1 {
		return false
	}
	rs, ok := loops[0].(*ast.RangeStmt)
	if !ok {
		return false
	}
	rBase, rField, ok := widthOperand(info, rs.X)
	return ok && rBase == xsBase && rField == xsField
}

// widthOperand resolves a fan-out-width expression — the len() argument or
// the range operand — to a comparable (base, field) object pair: a plain
// identifier (xs) or a field selection rooted at one (x.parts, the method
// shape). Anything deeper stays unproven.
func widthOperand(info *types.Info, e ast.Expr) (base, field types.Object, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		return obj, nil, obj != nil
	case *ast.SelectorExpr:
		id, isID := e.X.(*ast.Ident)
		if !isID {
			return nil, nil, false
		}
		b, f := info.Uses[id], info.Uses[e.Sel]
		return b, f, b != nil && f != nil
	}
	return nil, nil, false
}

func builtinCallNamed(info *types.Info, call *ast.CallExpr, name string) bool {
	return builtinName(info, call) == name
}

// buildParents maps every node under root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// Package lockheld mechanizes the engine's critical-section discipline:
// code holding a mutex must not park the goroutine, and nested lock
// acquisitions must agree on one global order. Both matter wherever a lock
// guards state that concurrent queries share — the store's mutex, the job
// tier's queue: a blocking operation under such a lock stalls every query
// that needs it, and an inverted acquisition pair is a deadlock waiting for
// the right interleaving.
//
// The analyzer runs the lockflow held-set walk over every function and
// function literal and reports:
//
//   - any blocking operation — channel send/receive, no-default select,
//     range over a channel, or a call whose interprocedural summary says it
//     may block — while at least one lock is held;
//   - a second Lock of a lock already held (self-deadlock);
//   - inverted acquisition-order pairs: lock B taken under A at one site
//     and A taken under B at another (both witnesses are reported);
//   - sync.Cond.Wait with more than one lock held — Wait releases only the
//     Cond's own locker, so every other held lock rides across the wait.
//
// Sends proven buffered (make(chan T, len(xs)) with one send per range
// iteration) and sync.Cond.Wait under exactly its own lock are exempt.
package lockheld

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"sdss/internal/lint/analysis"
	"sdss/internal/lint/lockflow"
)

// Analyzer is the lockheld pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "no blocking operation or inconsistently-ordered second lock while holding a mutex",
	Run:  run,
}

type orderEdge struct{ first, second string }

func run(pass *analysis.Pass) error {
	edges := map[orderEdge]token.Pos{}
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}

	lockflow.FuncBodies(pass.Files, func(name string, body, decl *ast.BlockStmt) {
		lockflow.Walk(pass.TypesInfo, body, func(n ast.Node, held map[string]token.Pos) {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, op := lockflow.LockOp(pass.TypesInfo, call); op != lockflow.OpNone {
					switch op {
					case lockflow.OpLock, lockflow.OpRLock:
						if id == "" {
							return
						}
						if _, self := held[id]; self && op == lockflow.OpLock {
							report(call.Pos(),
								"%s locks %s, which it already holds; sync.Mutex is not reentrant — this self-deadlocks",
								name, short(id))
							return
						}
						for prior := range held {
							if prior != id {
								edges[orderEdge{prior, id}] = call.Pos()
							}
						}
					case lockflow.OpCondWait:
						if len(held) >= 2 {
							report(call.Pos(),
								"sync.Cond.Wait in %s with %d locks held (%s); Wait releases only the Cond's locker — the others stay held across the park",
								name, len(held), heldList(held))
						}
					}
					return
				}
			}
			if len(held) == 0 {
				return
			}
			why, blocking := lockflow.Blocking(pass.TypesInfo, pass.Summaries, decl, n)
			if !blocking {
				return
			}
			report(n.Pos(),
				"%s in %s while holding %s; a parked goroutine must not hold engine locks — release before blocking",
				why, name, heldList(held))
		})
	})

	// Inverted acquisition orders: report both witnesses of each cycle pair.
	for e, pos := range edges {
		rpos, inverted := edges[orderEdge{e.second, e.first}]
		if !inverted || e.first > e.second {
			continue // the mirrored iteration reports the pair once, both sites
		}
		report(pos,
			"lock order inverted: %s acquired while holding %s here, but %s is acquired while holding %s at %s; pick one global order",
			short(e.second), short(e.first), short(e.first), short(e.second),
			pass.Fset.Position(rpos))
		report(rpos,
			"lock order inverted: %s acquired while holding %s here, but %s is acquired while holding %s at %s; pick one global order",
			short(e.first), short(e.second), short(e.second), short(e.first),
			pass.Fset.Position(pos))
	}
	return nil
}

// short trims the package path off a lock identity for readable messages:
// "sdss/internal/store.Store.mu" → "store.Store.mu".
func short(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

func heldList(held map[string]token.Pos) string {
	ids := make([]string, 0, len(held))
	for id := range held {
		ids = append(ids, short(id))
	}
	sort.Strings(ids)
	return strings.Join(ids, ", ")
}

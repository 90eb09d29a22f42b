// Package obsctx is the static twin of the observability contract's
// differential tests: a span started with StartSpan must be ended on
// every return path, or the trace it belongs to reports a region that
// never closes and the wall-time accounting of its depth-0 spans breaks.
// The returned end function is the only way to close a span, so the
// check is about what happens to that value: discarding it (expression
// statement, defer/go of the bare StartSpan, blank assignment) or
// binding it to a variable that is never called are convictions.
//
// The check is name-based and flow-insensitive, like syncerr: calling
// the end function anywhere in the function (including `defer end()`)
// satisfies it, and letting the value escape — returned, passed on,
// stored — hands the obligation to the receiver. Path-sensitive holes
// (an end called in only one branch) are covered dynamically by the
// trace differential tests, not here.
package obsctx

import (
	"go/ast"
	"go/types"

	"gdbm/internal/analysis"
)

// scope: everywhere spans are opened — the engines, the shared storage
// adapters, the query languages and the tools.
// internal/obs itself is excluded: it manipulates raw span state to
// implement StartSpan.
var scope = []string{
	"gdbm/internal/engine",
	"gdbm/internal/engines",
	"gdbm/internal/kvgraph",
	"gdbm/internal/query",
	"gdbm/cmd",
}

// Analyzer is the obsctx check.
var Analyzer = &analysis.Analyzer{
	Name: "obsctx",
	Doc: "every StartSpan must have its end function called on every return path, " +
		"never discarded — the static half of the span accounting contract",
	AppliesTo: func(pkgPath string) bool {
		for _, s := range scope {
			if analysis.PathIsUnder(pkgPath, s) {
				return true
			}
		}
		return false
	},
	Run: run,
}

// isEndFunc reports whether t is func() — no params, no results.
func isEndFunc(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func run(pass *analysis.Pass) error {
	// spanCall reports whether call is a method call named StartSpan whose
	// sole result is an end function.
	spanCall := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "StartSpan" {
			return false
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return false
		}
		sig, ok := selection.Type().(*types.Signature)
		if !ok {
			return false
		}
		return sig.Results().Len() == 1 && isEndFunc(sig.Results().At(0).Type())
	}

	// bound tracks one end function bound to a named variable.
	type bound struct {
		pos     ast.Node
		ended   bool // invoked (directly or via defer) somewhere
		escaped bool // used as a value: returned, passed, stored
	}
	tracked := map[types.Object]*bound{}
	// skip holds ident occurrences that are bindings or blank discards of
	// a tracked variable, not real uses.
	skip := map[*ast.Ident]bool{}

	// Pass 1: convict the immediate discards and collect bindings.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok && spanCall(call) {
					pass.Reportf(call.Pos(),
						"StartSpan end function is discarded; the span never ends — defer it: defer x.StartSpan(...)()")
				}
			case *ast.DeferStmt:
				if spanCall(stmt.Call) {
					pass.Reportf(stmt.Pos(),
						"defer runs StartSpan but discards its end function; write defer x.StartSpan(...)() so the span ends on return")
				}
			case *ast.GoStmt:
				if spanCall(stmt.Call) {
					pass.Reportf(stmt.Pos(),
						"go statement discards the StartSpan end function; the span never ends")
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok || !spanCall(call) {
					return true
				}
				// StartSpan has one result, so the binding is 1:1.
				id, ok := stmt.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				if id.Name == "_" {
					pass.Reportf(stmt.Pos(),
						"StartSpan end function is assigned to the blank identifier; the span never ends")
					return true
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil {
					return true
				}
				skip[id] = true
				if _, dup := tracked[obj]; !dup {
					tracked[obj] = &bound{pos: stmt}
				}
			}
			return true
		})
	}
	if len(tracked) == 0 {
		return nil
	}

	// Pass 2: classify every other occurrence of a tracked variable.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok {
					if b := tracked[pass.Info.ObjectOf(id)]; b != nil {
						b.ended = true
						skip[id] = true
					}
				}
			case *ast.AssignStmt:
				// `_ = end` is a discard dressed as a use, not an escape.
				if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					lhs, lok := x.Lhs[0].(*ast.Ident)
					rhs, rok := x.Rhs[0].(*ast.Ident)
					if lok && rok && lhs.Name == "_" && tracked[pass.Info.ObjectOf(rhs)] != nil {
						skip[rhs] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || skip[id] {
				return true
			}
			if b := tracked[pass.Info.ObjectOf(id)]; b != nil {
				b.escaped = true
			}
			return true
		})
	}

	for _, b := range tracked {
		if !b.ended && !b.escaped {
			pass.Reportf(b.pos.Pos(),
				"StartSpan end function is never called; a started span must end on every return path")
		}
	}
	return nil
}

// Package ctxflow is the static half of the server's deadline contract:
// a request's context must flow from the HTTP handler through the
// dispatch layer into the query kernels unbroken. The dynamic half — the
// cancellation regression tests in internal/algo and internal/query/plan
// — proves a threaded context stops a running scan; this check proves
// the dispatch code actually threads one.
//
// One way of severing the flow is convicted in server/dispatch scope:
//
//  1. Calling a context-threading query entry point (QueryStream,
//     QueryContext, ExecStreamCtx, ExecCtx, RunStreamCtx, RunCtx) with a
//     fresh context.Background() or context.TODO() as the context
//     argument. The call compiles and runs, but the client's deadline
//     and disconnect no longer reach the kernel, so an abandoned request
//     keeps burning an inflight slot until the query finishes on its
//     own. Root contexts at non-query call sites (signal handling,
//     shutdown budgets, outbound HTTP) are legitimate and not convicted.
//
// Every query surface takes the context as an argument, so dropping it
// altogether is a compile error rather than a lint finding.
//
// A second shape is convicted in a wider scope that also covers the
// engine packages:
//
//  2. Calling a cancellable query kernel of internal/algo (BFSCtx,
//     ReachableCtx, NeighborhoodCtx, FixedLengthPathsCtx,
//     ShortestPathCtx, FindMatchesCtx, FindMatchesSeededCtx,
//     AggregateNodePropCtx, DistanceCtx, DiameterCtx) with an inline
//     context.Background()/TODO(). Engines dispatch these kernels from
//     inside the closures built by Essentials(ctx); minting a fresh root
//     there severs every caller's deadline at the last hop, exactly
//     where it matters most — the kernels are the cancellation-aware
//     code on the path. Engines must thread the ctx Essentials was
//     handed; nothing in engine scope may start a root for a kernel.
//
// The check is name-based and flow-insensitive like the rest of the
// suite: it does not chase a Background() stored in a variable first.
// That hole is acceptable — the idiom the analyzer polices is the
// inline one, and the cancellation tests catch the rest dynamically.
package ctxflow

import (
	"go/ast"
	"go/types"

	"gdbm/internal/analysis"
)

// scope: the networked service and its dispatch layer — the only code
// that holds a per-request context and can lose it. Kernels and CLI
// tools legitimately start from Background.
var scope = []string{
	"gdbm/internal/server",
	"gdbm/cmd/gdbserver",
}

// kernelScope is where rule 2 applies: everywhere rule 1 does, plus the
// engine packages, whose Essentials closures are the last dispatch hop
// before the query kernels. Rule 1 stays out of engine scope: engines
// hold no per-request context of their own, only the one they are handed.
var kernelScope = []string{
	"gdbm/internal/engines",
}

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "server/dispatch code must thread the request context into query entry points: " +
		"no context.Background()/TODO() at a ctx-taking query entry point or query kernel",
	AppliesTo: func(pkgPath string) bool {
		for _, s := range scope {
			if analysis.PathIsUnder(pkgPath, s) {
				return true
			}
		}
		for _, s := range kernelScope {
			if analysis.PathIsUnder(pkgPath, s) {
				return true
			}
		}
		return false
	},
	Run: run,
}

// ctxEntryPoints is the set of context-threading query entry points
// rule 1 guards; a root context anywhere else (WithTimeout, signal
// handling, outbound requests) is legitimate.
var ctxEntryPoints = map[string]bool{
	"QueryStream":   true,
	"QueryContext":  true,
	"ExecStreamCtx": true,
	"ExecCtx":       true,
	"RunStreamCtx":  true,
	"RunCtx":        true,
}

// ctxKernels is the set of query kernels rule 2 guards: the Ctx halves
// of internal/algo's X/XCtx pairs. These are the cancellation-aware
// leaves of the dispatch chain; feeding them a fresh root discards every
// deadline accumulated above.
var ctxKernels = map[string]bool{
	"BFSCtx":               true,
	"ReachableCtx":         true,
	"NeighborhoodCtx":      true,
	"FixedLengthPathsCtx":  true,
	"ShortestPathCtx":      true,
	"FindMatchesCtx":       true,
	"FindMatchesSeededCtx": true,
	"AggregateNodePropCtx": true,
	"DistanceCtx":          true,
	"DiameterCtx":          true,
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// takesContextFirst reports whether sig's first parameter is
// context.Context.
func takesContextFirst(sig *types.Signature) bool {
	return sig != nil && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

func run(pass *analysis.Pass) error {
	// Rule 1 runs only in the server/dispatch scope; rule 2 runs
	// everywhere the analyzer applies (including the engine packages).
	dispatchScope := false
	for _, s := range scope {
		if analysis.PathIsUnder(pass.PkgPath, s) {
			dispatchScope = true
			break
		}
	}

	// freshContext reports whether e is an inline context.Background() or
	// context.TODO() call, returning which.
	freshContext := func(e ast.Expr) (string, bool) {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return "", false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return "", false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return "", false
		}
		pn, ok := pass.Info.Uses[pkg].(*types.PkgName)
		if !ok || pn.Imported().Path() != "context" {
			return "", false
		}
		return "context." + sel.Sel.Name + "()", true
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name

			// Rule 2: a query kernel fed a fresh root context. Applies in
			// engine scope too — the kernels are the cancellation-aware
			// leaves, so a root minted here discards the caller's deadline
			// at the last possible hop.
			if sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature); ok &&
				ctxKernels[name] && takesContextFirst(sig) && len(call.Args) > 0 {
				if src, fresh := freshContext(call.Args[0]); fresh {
					pass.Reportf(call.Pos(),
						"%s severs the caller's context at the query kernel %s; thread the ctx handed to the dispatch site (Essentials) instead",
						src, name)
					return true
				}
			}

			if !dispatchScope {
				return true
			}

			// Rule 1: a query entry point fed a fresh root context.
			if sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature); ok &&
				ctxEntryPoints[name] && takesContextFirst(sig) && len(call.Args) > 0 {
				if src, fresh := freshContext(call.Args[0]); fresh {
					pass.Reportf(call.Pos(),
						"%s severs the request context at %s; the deadline and client disconnect no longer reach the kernel — thread the caller's ctx",
						src, name)
				}
			}
			return true
		})
	}
	return nil
}

// Package lockdiscipline enforces one mutex rule in the storage stack and
// the engines: a Lock acquired in a function must be released in that same
// function — directly or by defer — unless the handoff is annotated.
// Cross-function lock handoffs (tx.Manager's transaction-lifetime writer
// lock) are legitimate but must say so with a justified
// //gdbvet:allow(lockdiscipline) directive. Copying a lock by value is
// stock go vet's copylocks check, which make lint runs too.
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"gdbm/internal/analysis"
)

var scope = []string{
	"gdbm/internal/storage",
	"gdbm/internal/engines",
	"gdbm/internal/kvgraph",
}

// Analyzer is the lockdiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "no Lock without a same-function Unlock (direct or deferred) in the " +
		"storage and engine packages",
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

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockPairs(pass, fd)
		}
	}
	return nil
}

// mutexCall classifies a call as a sync.Mutex/RWMutex lock-family method
// call and returns the receiver's printed form plus the method name.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	selection, isMethod := pass.Info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	// The method must come from sync.Mutex or sync.RWMutex (possibly
	// promoted through embedding).
	mobj := selection.Obj()
	if mobj.Pkg() == nil || mobj.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// checkLockPairs flags Lock/RLock calls with no same-function
// Unlock/RUnlock on the same receiver expression. The whole declaration
// body, including nested function literals (the `defer func() { ...
// mu.Unlock() }()` idiom), counts as "same function".
func checkLockPairs(pass *analysis.Pass, fd *ast.FuncDecl) {
	type lockSite struct {
		pos    ast.Node
		recv   string
		method string
	}
	var locks []lockSite
	unlocks := map[string]bool{} // recv + "\x00" + method

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := mutexCall(pass, call)
		if !ok {
			return true
		}
		switch method {
		case "Lock", "RLock":
			locks = append(locks, lockSite{call, recv, method})
		case "Unlock", "RUnlock":
			unlocks[recv+"\x00"+method] = true
		}
		return true
	})

	for _, l := range locks {
		want := "Unlock"
		if l.method == "RLock" {
			want = "RUnlock"
		}
		if !unlocks[l.recv+"\x00"+want] {
			pass.Reportf(l.pos.Pos(),
				"%s.%s() has no matching %s.%s() in %s; unlock on every path (prefer defer) or annotate the lock handoff",
				l.recv, l.method, l.recv, want, fd.Name.Name)
		}
	}
}

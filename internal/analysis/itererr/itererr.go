// Package itererr enforces the iteration-error contract on every path
// through a function: the error produced by iterating a graph must be
// looked at before the results are trusted. This is the bug class the
// repo has fixed by hand twice — algo kernels building Degrees/Diameter
// over swallowed Nodes/Edges errors, then a second sweep through the
// engines — and each fix needed a FlakyGraph regression test to stay
// fixed. The analyzer pins the whole class statically.
//
// Two iteration shapes are guarded, both only when the API comes from
// this module:
//
//  1. Callback iteration — the model.Graph idiom `Nodes(fn func(..)
//     bool) error` and its siblings (Edges, Neighbors, HyperEdges,
//     Incident). The returned error must be consumed on every path:
//     discarding it (expression statement, defer/go, blank
//     assignment), letting an assigned error variable reach a return
//     without a use, or overwriting it unchecked are convictions.
//
//  2. Cursor iteration — any call returning a value whose method set
//     has both `Next() bool` and `Err() error`. After the loop, Err()
//     must be called on every path before the function returns, or the
//     cursor must escape (returned, stored, or passed to a function
//     that the cross-package summaries cannot prove ignores it).
//
// Unlike the older name-based checks (syncerr, vfsonly), this analyzer
// is path-sensitive: it runs a forward dataflow over the function's
// CFG, so an error checked in one branch but not the other is caught,
// and a check that dominates every exit is accepted wherever it
// appears. A path ending in panic or os.Exit/log.Fatal owes no check.
package itererr

import (
	"go/ast"
	"go/token"
	"go/types"

	"gdbm/internal/analysis"
	"gdbm/internal/analysis/cfg"
	"gdbm/internal/analysis/dataflow"
)

// Analyzer is the itererr check.
var Analyzer = &analysis.Analyzer{
	Name: "itererr",
	Doc: "the error from iterating a graph (callback iteration or a Next/Err cursor) " +
		"must be checked on every path before the results are used",
	Run: run,
}

// iterMethods are the module's callback-iteration entry points.
var iterMethods = map[string]bool{
	"Nodes": true, "Edges": true, "Neighbors": true,
	"HyperEdges": true, "Incident": true,
}

func run(pass *analysis.Pass) error {
	a := &checker{pass: pass, module: analysis.ModulePath(pass.PkgPath)}
	analysis.FuncBodies(pass.Files, a.checkBody)
	return nil
}

type siteKind int

const (
	callbackSite siteKind = iota
	cursorSite
)

// site is one tracked iteration whose error obligation is live.
type site struct {
	id    int
	kind  siteKind
	label string // printable call, e.g. "g.Nodes"
	pos   token.Pos
	obj   types.Object // the error variable (callback) or cursor variable
	// errObj is the error returned alongside a cursor, when present;
	// on its non-nil branch the cursor is dead and owes nothing.
	errObj   types.Object
	def      ast.Node // the defining statement
	reported bool
}

type checker struct {
	pass   *analysis.Pass
	module string
}

// iterCall matches a call to a module-internal callback-iteration
// method: named like an iterator, takes a func(...) bool, returns
// exactly one error.
func (c *checker) iterCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !iterMethods[sel.Sel.Name] {
		return "", false
	}
	selection, ok := c.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || analysis.ModulePath(fn.Pkg().Path()) != c.module {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || !isError(sig.Results().At(0).Type()) {
		return "", false
	}
	hasCallback := false
	for i := 0; i < sig.Params().Len(); i++ {
		if fsig, ok := sig.Params().At(i).Type().Underlying().(*types.Signature); ok {
			if fsig.Results().Len() == 1 && isBool(fsig.Results().At(0).Type()) {
				hasCallback = true
			}
		}
	}
	if !hasCallback {
		return "", false
	}
	return types.ExprString(sel.X) + "." + sel.Sel.Name, true
}

// cursorResult finds a module-internal iterator (Next() bool + Err()
// error in the method set) among the call's results; errIdx is the
// index of an accompanying error result, or -1.
func (c *checker) cursorResult(call *ast.CallExpr) (resIdx, errIdx int, label string, ok bool) {
	tv, found := c.pass.Info.Types[call]
	if !found {
		return 0, -1, "", false
	}
	check := func(t types.Type) bool {
		named := namedOrPtr(t)
		if named == nil || named.Obj().Pkg() == nil ||
			analysis.ModulePath(named.Obj().Pkg().Path()) != c.module {
			// Interface-typed cursors from the module count too.
			if !isModuleInterface(t, c.module) {
				return false
			}
		}
		return hasMethodShape(t, "Next", func(s *types.Signature) bool {
			return s.Params().Len() == 0 && s.Results().Len() == 1 && isBool(s.Results().At(0).Type())
		}) && hasMethodShape(t, "Err", func(s *types.Signature) bool {
			return s.Params().Len() == 0 && s.Results().Len() == 1 && isError(s.Results().At(0).Type())
		})
	}
	if tuple, isTuple := tv.Type.(*types.Tuple); isTuple {
		resIdx, errIdx = -1, -1
		for i := 0; i < tuple.Len(); i++ {
			t := tuple.At(i).Type()
			if resIdx < 0 && check(t) {
				resIdx = i
			} else if isError(t) {
				errIdx = i
			}
		}
		if resIdx < 0 {
			return 0, -1, "", false
		}
		return resIdx, errIdx, types.ExprString(call.Fun), true
	}
	if check(tv.Type) {
		return 0, -1, types.ExprString(call.Fun), true
	}
	return 0, -1, "", false
}

// checkBody analyzes one function-like body.
func (c *checker) checkBody(name string, body *ast.BlockStmt) {
	sites := c.collect(body)
	if len(sites) == 0 {
		return
	}
	byObj := map[types.Object][]*site{}
	byDef := map[ast.Node][]*site{}
	for _, s := range sites {
		if s.obj != nil {
			byObj[s.obj] = append(byObj[s.obj], s)
		}
		byDef[s.def] = append(byDef[s.def], s)
	}

	g := cfg.Build(body, cfg.Options{NoReturn: analysis.NoReturnCall(c.pass.Info)})

	// A deferred statement runs at every exit, after the sites are
	// defined, so a use inside one (typically a closure inspecting a
	// captured err) discharges the obligation regardless of where the
	// defer statement itself appears in flow order.
	deferChecked := map[types.Object]bool{}
	for _, d := range g.Defers {
		ops := c.classify(d, byObj, byDef)
		for _, obj := range ops.uses {
			deferChecked[obj] = true
		}
		for _, obj := range ops.errChecks {
			deferChecked[obj] = true
		}
	}

	// fact: the set of site ids whose error is still unchecked.
	type fact = map[int]bool
	kill := func(f fact, pred func(*site) bool) fact {
		var out fact
		for id := range f {
			if pred(sites[id]) {
				if out == nil {
					out = make(fact, len(f))
					for k := range f {
						out[k] = true
					}
				}
				delete(out, id)
			}
		}
		if out == nil {
			return f
		}
		return out
	}

	transfer := func(n ast.Node, f fact, report bool) fact {
		ops := c.classify(n, byObj, byDef)
		// 1. Uses check the error / escape the cursor.
		for _, obj := range ops.uses {
			f = kill(f, func(s *site) bool { return s.obj == obj })
		}
		// 2. Cursor Err() calls and refined passes.
		for _, obj := range ops.errChecks {
			f = kill(f, func(s *site) bool { return s.obj == obj })
		}
		for _, p := range ops.passes {
			p := p
			f = kill(f, func(s *site) bool {
				if s.obj != p.obj {
					return false
				}
				if s.kind == callbackSite {
					return true // passing the error on counts as a check
				}
				fs := c.pass.Summaries.Func(p.callee)
				if fs == nil {
					return true // unknown callee: assume it checks
				}
				return fs.ChecksErr[p.argIdx] || fs.Escapes[p.argIdx]
			})
		}
		if ops.errorExit {
			f = kill(f, func(*site) bool { return true })
		}
		// 3. Reassignments and redefinitions lose an unchecked error.
		lose := func(obj types.Object, exceptDef ast.Node) {
			f = kill(f, func(s *site) bool {
				dead := s.obj == obj && s.def != exceptDef
				if dead && report && !s.reported {
					s.reported = true
					c.pass.Reportf(s.pos,
						"error from %s is overwritten before it is checked", s.label)
				}
				return dead
			})
		}
		for _, obj := range ops.reassigns {
			lose(obj, nil)
		}
		for _, s := range ops.adds {
			if s.obj != nil {
				lose(s.obj, s.def)
			}
			out := make(fact, len(f)+1)
			for k := range f {
				out[k] = true
			}
			out[s.id] = true
			f = out
		}
		return f
	}

	res := dataflow.Forward(g, dataflow.Problem[fact]{
		Entry: fact{},
		Join: func(a, b fact) fact {
			if len(a) == 0 {
				return b
			}
			if len(b) == 0 {
				return a
			}
			out := make(fact, len(a)+len(b))
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(n ast.Node, f fact) fact { return transfer(n, f, false) },
		Edge: func(e cfg.Edge, f fact) fact {
			// On the branch where a cursor's paired constructor error is
			// non-nil, the cursor is dead and owes no Err check.
			obj, nonNil, ok := nilCheck(c.pass.Info, e.Cond)
			if !ok {
				return f
			}
			return kill(f, func(s *site) bool {
				if s.kind != cursorSite {
					return false
				}
				if s.errObj != nil && s.errObj == obj && nonNil == e.Branch {
					return true
				}
				// `if it == nil` on the nil arm likewise.
				return s.obj == obj && !nonNil == e.Branch
			})
		},
	})

	// Replay reached blocks once, reporting overwrites in flow order.
	for _, b := range g.Blocks {
		f, reached := res.In[b]
		if !reached {
			continue
		}
		for _, n := range b.Nodes {
			f = transfer(n, f, true)
		}
	}
	// Anything still unchecked at Exit on some path is the conviction.
	for id := range res.In[g.Exit] {
		s := sites[id]
		if s.reported || deferChecked[s.obj] {
			continue
		}
		s.reported = true
		switch s.kind {
		case callbackSite:
			c.pass.Reportf(s.pos,
				"error from %s is not checked on every path to return; a failed iteration must not pass for an empty one", s.label)
		case cursorSite:
			c.pass.Reportf(s.pos,
				"iterator from %s reaches a return without Err() being checked on every path", s.label)
		}
	}
}

// collect finds the iteration sites of body (not descending into
// nested function literals, which are analyzed on their own) and
// reports the immediate discards.
func (c *checker) collect(body *ast.BlockStmt) []*site {
	var sites []*site
	add := func(k siteKind, label string, pos token.Pos, obj, errObj types.Object, def ast.Node) {
		sites = append(sites, &site{
			id: len(sites), kind: k, label: label, pos: pos,
			obj: obj, errObj: errObj, def: def,
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if label, ok := c.iterCall(call); ok {
					c.pass.Reportf(call.Pos(),
						"error from %s is discarded; a failed iteration silently passes for an empty one", label)
				} else if _, _, label, ok := c.cursorResult(call); ok {
					c.pass.Reportf(call.Pos(),
						"iterator from %s is discarded; its Err() can never be checked", label)
				}
			}
		case *ast.DeferStmt:
			if label, ok := c.iterCall(n.Call); ok {
				c.pass.Reportf(n.Pos(), "defer discards the error from %s", label)
			}
		case *ast.GoStmt:
			if label, ok := c.iterCall(n.Call); ok {
				c.pass.Reportf(n.Pos(), "go statement discards the error from %s", label)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if label, ok := c.iterCall(call); ok && len(n.Lhs) == 1 {
				obj := lhsObject(c.pass.Info, n.Lhs[0])
				if isBlank(n.Lhs[0]) {
					c.pass.Reportf(n.Pos(),
						"error from %s is assigned to the blank identifier; check it", label)
				} else if obj != nil {
					add(callbackSite, label, call.Pos(), obj, nil, n)
				}
				return true
			}
			if resIdx, errIdx, label, ok := c.cursorResult(call); ok && resIdx < len(n.Lhs) {
				obj := lhsObject(c.pass.Info, n.Lhs[resIdx])
				var errObj types.Object
				if errIdx >= 0 && errIdx < len(n.Lhs) {
					errObj = lhsObject(c.pass.Info, n.Lhs[errIdx])
				}
				if isBlank(n.Lhs[resIdx]) {
					c.pass.Reportf(n.Pos(),
						"iterator from %s is assigned to the blank identifier; its Err() can never be checked", label)
				} else if obj != nil {
					add(cursorSite, label, call.Pos(), obj, errObj, n)
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 || len(vs.Names) != 1 {
					continue
				}
				call, ok := vs.Values[0].(*ast.CallExpr)
				if !ok {
					continue
				}
				if label, ok := c.iterCall(call); ok {
					if obj := c.pass.Info.Defs[vs.Names[0]]; obj != nil {
						add(callbackSite, label, call.Pos(), obj, nil, n)
					}
				}
			}
		}
		return true
	})
	return sites
}

// passEvent is a tracked variable handed to a call as a plain argument.
type passEvent struct {
	obj    types.Object
	callee *types.Func // nil when the target is not statically known
	argIdx int
}

type nodeOps struct {
	uses      []types.Object
	errChecks []types.Object
	passes    []passEvent
	reassigns []types.Object
	adds      []*site
	// errorExit marks a return carrying some other non-nil error-typed
	// result: the function fails on this path, so nothing is being
	// swallowed and every obligation is discharged. Only a failed
	// iteration passing for a success is the bug class.
	errorExit bool
}

// classify extracts one CFG node's effects on the tracked sites.
func (c *checker) classify(n ast.Node, byObj map[types.Object][]*site, byDef map[ast.Node][]*site) nodeOps {
	var ops nodeOps
	ops.adds = byDef[n]

	tracked := func(e ast.Expr) (types.Object, *site) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, nil
		}
		obj := c.pass.Info.ObjectOf(id)
		ss := byObj[obj]
		if len(ss) == 0 {
			return nil, nil
		}
		return obj, ss[0]
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if obj, _ := tracked(lhs); obj != nil {
						if len(byDef[x]) == 0 || !defines(byDef[x], obj) {
							ops.reassigns = append(ops.reassigns, obj)
						}
					} else if _, isIdent := lhs.(*ast.Ident); !isIdent {
						walk(lhs)
					}
				}
				for _, rhs := range x.Rhs {
					walk(rhs)
				}
				return false
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if obj, s := tracked(sel.X); obj != nil {
						if s.kind == cursorSite {
							if sel.Sel.Name == "Err" {
								ops.errChecks = append(ops.errChecks, obj)
							}
							// Other method calls on the cursor are neutral.
						} else {
							ops.uses = append(ops.uses, obj)
						}
						for _, arg := range x.Args {
							walk(arg)
						}
						return false
					}
				}
				callee := calleeOf(c.pass.Info, x)
				for i, arg := range x.Args {
					if obj, _ := tracked(arg); obj != nil {
						ops.passes = append(ops.passes, passEvent{obj: obj, callee: callee, argIdx: i})
						continue
					}
					walk(arg)
				}
				walk(x.Fun)
				return false
			case *ast.SelectorExpr:
				if obj, s := tracked(x.X); obj != nil {
					if s.kind == cursorSite {
						if x.Sel.Name == "Err" {
							ops.errChecks = append(ops.errChecks, obj)
						}
					} else {
						ops.uses = append(ops.uses, obj)
					}
					return false
				}
				return true
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					if obj, _ := tracked(r); obj != nil {
						ops.uses = append(ops.uses, obj)
						continue
					}
					if tv, ok := c.pass.Info.Types[r]; ok && !tv.IsNil() && implementsError(tv.Type) {
						ops.errorExit = true
					}
					walk(r)
				}
				return false
			case *ast.RangeStmt:
				// Only the operand evaluates at this CFG node; the body
				// lives in its own blocks.
				walk(x.X)
				for _, v := range []ast.Expr{x.Key, x.Value} {
					if v == nil {
						continue
					}
					if obj, _ := tracked(v); obj != nil {
						ops.reassigns = append(ops.reassigns, obj)
					}
				}
				return false
			case *ast.Ident:
				if obj, _ := tracked(x); obj != nil {
					ops.uses = append(ops.uses, obj)
				}
			}
			return true
		})
	}
	walk(n)
	return ops
}

func defines(ss []*site, obj types.Object) bool {
	for _, s := range ss {
		if s.obj == obj {
			return true
		}
	}
	return false
}

// nilCheck matches `x != nil` / `x == nil` and returns the checked
// object and whether the true branch is the non-nil one.
func nilCheck(info *types.Info, cond ast.Expr) (types.Object, bool, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil, false, false
	}
	op := be.Op.String()
	if op != "!=" && op != "==" {
		return nil, false, false
	}
	x, y := be.X, be.Y
	if isNilIdent(info, x) {
		x, y = y, x
	}
	if !isNilIdent(info, y) {
		return nil, false, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false, false
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return nil, false, false
	}
	return obj, op == "!=", true
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := info.ObjectOf(id)
	// A package-level error variable escapes the function; other code
	// owns checking it.
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return obj
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isError(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

func isBool(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// hasMethodShape reports whether t's method set (through a pointer)
// has a method of the given name whose signature passes ok.
func hasMethodShape(t types.Type, name string, ok func(*types.Signature) bool) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return false
	}
	sig, isSig := fn.Type().(*types.Signature)
	return isSig && ok(sig)
}

func namedOrPtr(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func isModuleInterface(t types.Type, module string) bool {
	named, ok := t.(*types.Named)
	if !ok || !types.IsInterface(t) {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && analysis.ModulePath(obj.Pkg().Path()) == module
}

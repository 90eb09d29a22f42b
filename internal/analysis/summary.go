package analysis

// Cross-package function summaries. The dataflow analyzers (itererr,
// closeleak, lockorder) reason about what a callee does to its
// arguments — does it close them, does it check their Err, does it
// stash them somewhere — and about which locks a call may acquire.
// ComputeSummaries extracts that per function from every loaded target
// and runs the propagation fixpoints, so a call into another package of
// the module is as transparent as a local one. Functions outside the
// loaded targets (the standard library, export-data-only dependencies)
// have no summary; analyzers must treat calls to them conservatively.
//
// Summaries are keyed by types.Func.FullName(), which is stable across
// the separately type-checked packages of one load (a function seen
// from its defining package and through export data yields distinct
// objects but the same full name).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gdbm/internal/analysis/cfg"
	"gdbm/internal/analysis/dataflow"
)

// RecvParam is the pseudo-index naming a method's receiver in the
// per-parameter summary maps.
const RecvParam = -1

// FuncSummary is what one function does with its parameters and locks.
type FuncSummary struct {
	// Name is the types.Func FullName.
	Name string
	// Closes[i] is true when the function closes parameter i (RecvParam
	// for the receiver) on some path, directly or via a summarized
	// callee.
	Closes map[int]bool
	// ChecksErr[i] is true when the function calls Err() on parameter i
	// or forwards it to a summarized checker.
	ChecksErr map[int]bool
	// Escapes[i] is true when parameter i may outlive the call: it is
	// returned, stored, sent, or passed to an unsummarized function.
	Escapes map[int]bool

	// Acquires are the lock classes the function acquires directly.
	Acquires []LockAcquire
	// LockEdges are the held→acquired orderings observed inside the
	// function body (From held when To was acquired).
	LockEdges []LockOrderEdge
	// LockCalls are the summarized calls made while at least one lock
	// was held.
	LockCalls []LockCall

	// calls lists the summarized callees with the caller-param → callee
	// param mapping, for the propagation fixpoints.
	calls []callRef
}

// LockAcquire is one lock acquisition site, abstracted to a class: the
// defining type (or package) plus the field or variable name, so every
// instance of `(*kvgraph.Graph).mu` lands in one class.
type LockAcquire struct {
	Class string // e.g. "gdbm/internal/kvgraph.Graph.mu"
	Expr  string // source form of the receiver, e.g. "g.mu"
	Write bool   // Lock (true) or RLock (false)
	Pos   token.Position
}

// LockOrderEdge records that To was acquired while From was held.
type LockOrderEdge struct {
	From, To LockAcquire
	// SameExpr marks From and To as the same receiver expression in the
	// same function: a definite re-entry, not just a class collision.
	SameExpr bool
	// Via names the callee whose transitive acquisition produced the
	// edge; empty for a direct acquisition.
	Via string
	Pos token.Position
}

// LockCall is a summarized call made with locks held.
type LockCall struct {
	Held   []LockAcquire
	Callee string
	Pos    token.Position
}

type callRef struct {
	callee string
	// argMap maps callee parameter index → caller parameter index
	// (RecvParam for the caller's receiver).
	argMap map[int]int
	// recvFrom is the caller parameter passed as the callee's receiver,
	// or a sentinel when none.
	recvFrom int
	hasRecv  bool
}

// Summaries indexes every loaded function's summary.
type Summaries struct {
	funcs map[string]*FuncSummary
	// trans is the transitive may-acquire closure per function.
	trans map[string][]LockAcquire
	// globalEdges is the program-wide lock-order edge set: direct edges
	// plus held × transitive-acquires-of-callee expansions.
	globalEdges []LockOrderEdge
}

// Func returns the summary for fn, or nil when fn was not among the
// loaded targets. Nil receivers are safe.
func (s *Summaries) Func(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.funcs[fn.FullName()]
}

// Closes reports whether fn is known to close its param-th parameter.
func (s *Summaries) Closes(fn *types.Func, param int) bool {
	fs := s.Func(fn)
	return fs != nil && fs.Closes[param]
}

// ChecksErr reports whether fn is known to call Err() on its param-th
// parameter.
func (s *Summaries) ChecksErr(fn *types.Func, param int) bool {
	fs := s.Func(fn)
	return fs != nil && fs.ChecksErr[param]
}

// Escapes reports whether fn may retain its param-th parameter.
func (s *Summaries) Escapes(fn *types.Func, param int) bool {
	fs := s.Func(fn)
	return fs != nil && fs.Escapes[param]
}

// TransAcquires returns the lock classes a call to the named function
// may acquire, including transitively through summarized callees.
func (s *Summaries) TransAcquires(name string) []LockAcquire {
	if s == nil {
		return nil
	}
	return s.trans[name]
}

// GlobalLockEdges returns the program-wide lock-order edge set.
func (s *Summaries) GlobalLockEdges() []LockOrderEdge {
	if s == nil {
		return nil
	}
	return s.globalEdges
}

func (s *Summaries) sortedNames() []string {
	names := make([]string, 0, len(s.funcs))
	for n := range s.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ComputeSummaries builds the summary set for the targets of one load.
func ComputeSummaries(targets []*Target) *Summaries {
	s := &Summaries{funcs: map[string]*FuncSummary{}, trans: map[string][]LockAcquire{}}
	for _, t := range targets {
		for _, f := range t.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := t.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fs := summarizeFunc(t, fd, fn)
				s.funcs[fs.Name] = fs
			}
		}
	}
	s.propagate()
	s.closeLocks()
	return s
}

// summarizeFunc extracts one function's direct facts.
func summarizeFunc(t *Target, fd *ast.FuncDecl, fn *types.Func) *FuncSummary {
	fs := &FuncSummary{
		Name:      fn.FullName(),
		Closes:    map[int]bool{},
		ChecksErr: map[int]bool{},
		Escapes:   map[int]bool{},
	}

	// Parameter objects → index; receiver → RecvParam.
	paramIdx := map[types.Object]int{}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := t.Info.Defs[name]; obj != nil {
					paramIdx[obj] = RecvParam
				}
			}
		}
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := t.Info.Defs[name]; obj != nil {
					paramIdx[obj] = i
				}
				i++
			}
		}
	}
	pIdx := func(e ast.Expr) (int, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return 0, false
		}
		idx, ok := paramIdx[t.Info.Uses[id]]
		return idx, ok
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Direct Close/Err on a parameter.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if idx, isParam := pIdx(sel.X); isParam {
					switch sel.Sel.Name {
					case "Close":
						fs.Closes[idx] = true
					case "Err":
						fs.ChecksErr[idx] = true
					}
				}
			}
			callee := calleeFunc(t.Info, n)
			if callee == nil {
				// Unknown target: any parameter passed in escapes.
				for _, arg := range n.Args {
					if idx, isParam := pIdx(arg); isParam {
						fs.Escapes[idx] = true
					}
				}
				return true
			}
			ref := callRef{callee: callee.FullName(), argMap: map[int]int{}}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if idx, isParam := pIdx(sel.X); isParam {
					ref.recvFrom, ref.hasRecv = idx, true
				}
			}
			for ai, arg := range n.Args {
				if idx, isParam := pIdx(arg); isParam {
					ref.argMap[ai] = idx
				}
			}
			fs.calls = append(fs.calls, ref)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				markParamIdents(t, paramIdx, res, fs.Escapes)
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				markParamIdents(t, paramIdx, rhs, fs.Escapes)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				markParamIdents(t, paramIdx, el, fs.Escapes)
			}
		case *ast.SendStmt:
			markParamIdents(t, paramIdx, n.Value, fs.Escapes)
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				markParamIdents(t, paramIdx, arg, fs.Escapes)
			}
		}
		return true
	})

	summarizeLocks(t, fd, fs)
	return fs
}

// markParamIdents marks every parameter identifier inside e in the
// given fact map, including captures inside function literals (a
// capture can outlive the call, which is exactly what Escapes means).
func markParamIdents(t *Target, paramIdx map[types.Object]int, e ast.Expr, facts map[int]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if idx, ok := paramIdx[t.Info.Uses[id]]; ok {
				facts[idx] = true
			}
		}
		return true
	})
}

// calleeFunc resolves the statically-known target of a call: a
// package-level function, or a method reached through a concrete
// selector. Interface method calls and called values resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			// An interface method has no body anywhere we can see.
			if fn != nil && types.IsInterface(sel.Recv()) {
				return nil
			}
			return fn
		}
		// Qualified package function pkg.F.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ----- lock facts -----

// heldFact is the may-held lock set, keyed by class+expr+mode.
type heldFact map[string]LockAcquire

func (h heldFact) with(a LockAcquire) heldFact {
	out := make(heldFact, len(h)+1)
	for k, v := range h {
		out[k] = v
	}
	out[heldKey(a)] = a
	return out
}

func (h heldFact) without(class, expr string, write bool) heldFact {
	k := class + "\x00" + expr + "\x00" + modeStr(write)
	if _, ok := h[k]; !ok {
		return h
	}
	out := make(heldFact, len(h))
	for kk, v := range h {
		if kk != k {
			out[kk] = v
		}
	}
	return out
}

func heldKey(a LockAcquire) string {
	return a.Class + "\x00" + a.Expr + "\x00" + modeStr(a.Write)
}

func modeStr(write bool) string {
	if write {
		return "w"
	}
	return "r"
}

func joinHeld(a, b heldFact) heldFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(heldFact, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

func equalHeld(a, b heldFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// summarizeLocks runs the held-set dataflow over fd and records direct
// acquisitions, order edges and with-locks-held calls on fs.
func summarizeLocks(t *Target, fd *ast.FuncDecl, fs *FuncSummary) {
	// transfer applies one node's lock effects to h; when record is
	// non-nil it also collects the summary facts.
	transfer := func(n ast.Node, h heldFact, record bool) heldFact {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			// A deferred Unlock keeps the lock held until Exit; a
			// deferred anything-else has no ordering effect we model.
			return h
		}
		calls := callsInOrder(n)
		for _, call := range calls {
			if acq, ok := mutexAcquire(t, call); ok {
				if record {
					fs.Acquires = append(fs.Acquires, acq)
					for _, held := range sortedHeld(h) {
						fs.LockEdges = append(fs.LockEdges, LockOrderEdge{
							From:     held,
							To:       acq,
							SameExpr: held.Class == acq.Class && held.Expr == acq.Expr,
							Pos:      acq.Pos,
						})
					}
				}
				h = h.with(acq)
				continue
			}
			if class, expr, write, ok := mutexRelease(t, call); ok {
				h = h.without(class, expr, write)
				continue
			}
			if record && len(h) > 0 {
				if callee := calleeFunc(t.Info, call); callee != nil {
					fs.LockCalls = append(fs.LockCalls, LockCall{
						Held:   sortedHeld(h),
						Callee: callee.FullName(),
						Pos:    t.Fset.Position(call.Pos()),
					})
				}
			}
		}
		return h
	}

	g := cfg.Build(fd.Body, cfg.Options{})
	res := dataflow.Forward(g, dataflow.Problem[heldFact]{
		Entry: heldFact{},
		Join:  joinHeld,
		Equal: equalHeld,
		Transfer: func(n ast.Node, h heldFact) heldFact {
			return transfer(n, h, false)
		},
	})
	// Replay each reached block once to record facts against the solved
	// entry state.
	for _, b := range g.Blocks {
		h, reached := res.In[b]
		if !reached {
			continue
		}
		for _, n := range b.Nodes {
			h = transfer(n, h, true)
		}
	}
}

func sortedHeld(h heldFact) []LockAcquire {
	out := make([]LockAcquire, 0, len(h))
	for _, v := range h {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Expr < out[j].Expr
	})
	return out
}

// callsInOrder lists the call expressions inside n in lexical order,
// without descending into function literals.
func callsInOrder(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			out = append(out, call)
		}
		return true
	})
	return out
}

// mutexAcquire classifies call as sync.Mutex/RWMutex Lock or RLock and
// returns the abstract acquisition.
func mutexAcquire(t *Target, call *ast.CallExpr) (LockAcquire, bool) {
	sel, name, ok := syncMethod(t.Info, call)
	if !ok || (name != "Lock" && name != "RLock") {
		return LockAcquire{}, false
	}
	return LockAcquire{
		Class: lockClass(t.Info, sel.X),
		Expr:  types.ExprString(sel.X),
		Write: name == "Lock",
		Pos:   t.Fset.Position(call.Pos()),
	}, true
}

// mutexRelease classifies call as Unlock/RUnlock.
func mutexRelease(t *Target, call *ast.CallExpr) (class, expr string, write, ok bool) {
	sel, name, found := syncMethod(t.Info, call)
	if !found || (name != "Unlock" && name != "RUnlock") {
		return "", "", false, false
	}
	return lockClass(t.Info, sel.X), types.ExprString(sel.X), name == "Unlock", true
}

// syncMethod matches a call to a lock-family method promoted from the
// sync package and returns its selector and method name.
func syncMethod(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	if obj := selection.Obj(); obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel, sel.Sel.Name, true
}

// lockClass abstracts the receiver expression of a lock call to a
// stable class name: the defining named type plus the field name for
// struct fields, the package path plus the variable name for variables.
func lockClass(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// x.mu — name the field after x's named type.
		if t := exprType(info, e.X); t != nil {
			if named := namedOf(t); named != nil {
				obj := named.Obj()
				return pkgPrefix(obj.Pkg()) + obj.Name() + "." + e.Sel.Name
			}
		}
		return types.ExprString(e)
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return pkgPrefix(obj.Pkg()) + obj.Name()
		}
	}
	return types.ExprString(e)
}

func pkgPrefix(p *types.Package) string {
	if p == nil {
		return ""
	}
	return p.Path() + "."
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// ----- propagation fixpoints -----

// propagate closes Closes/ChecksErr/Escapes over the call graph: a
// parameter forwarded to a summarized callee inherits what the callee
// does with it.
func (s *Summaries) propagate() {
	changed := true
	for rounds := 0; changed && rounds < 10; rounds++ {
		changed = false
		for _, name := range s.sortedNames() {
			fs := s.funcs[name]
			for _, ref := range fs.calls {
				callee := s.funcs[ref.callee]
				if callee == nil {
					// Unsummarized callee: arguments escape.
					for _, callerIdx := range ref.argMap {
						if !fs.Escapes[callerIdx] {
							fs.Escapes[callerIdx] = true
							changed = true
						}
					}
					continue
				}
				for calleeIdx, callerIdx := range ref.argMap {
					if callee.Closes[calleeIdx] && !fs.Closes[callerIdx] {
						fs.Closes[callerIdx] = true
						changed = true
					}
					if callee.ChecksErr[calleeIdx] && !fs.ChecksErr[callerIdx] {
						fs.ChecksErr[callerIdx] = true
						changed = true
					}
					if callee.Escapes[calleeIdx] && !fs.Escapes[callerIdx] {
						fs.Escapes[callerIdx] = true
						changed = true
					}
				}
				if ref.hasRecv {
					if callee.Closes[RecvParam] && !fs.Closes[ref.recvFrom] {
						fs.Closes[ref.recvFrom] = true
						changed = true
					}
					if callee.ChecksErr[RecvParam] && !fs.ChecksErr[ref.recvFrom] {
						fs.ChecksErr[ref.recvFrom] = true
						changed = true
					}
					if callee.Escapes[RecvParam] && !fs.Escapes[ref.recvFrom] {
						fs.Escapes[ref.recvFrom] = true
						changed = true
					}
				}
			}
		}
	}
}

// closeLocks computes the transitive may-acquire closure and the
// program-wide lock-order edge set.
func (s *Summaries) closeLocks() {
	// Transitive acquires: direct ∪ callees', to a fixpoint.
	acq := map[string]map[string]LockAcquire{}
	for name, fs := range s.funcs {
		m := map[string]LockAcquire{}
		for _, a := range fs.Acquires {
			m[a.Class+modeStr(a.Write)] = a
		}
		acq[name] = m
	}
	changed := true
	for rounds := 0; changed && rounds < 20; rounds++ {
		changed = false
		for _, name := range s.sortedNames() {
			fs := s.funcs[name]
			m := acq[name]
			for _, ref := range fs.calls {
				for k, a := range acq[ref.callee] {
					if _, ok := m[k]; !ok {
						m[k] = a
						changed = true
					}
				}
			}
		}
	}
	for name, m := range acq {
		for _, a := range sortedAcquireMap(m) {
			s.trans[name] = append(s.trans[name], a)
		}
	}

	// Global edges: every direct edge, plus held × transitive acquires
	// at each with-locks-held call site.
	for _, name := range s.sortedNames() {
		fs := s.funcs[name]
		s.globalEdges = append(s.globalEdges, fs.LockEdges...)
		for _, lc := range fs.LockCalls {
			for _, to := range s.trans[lc.Callee] {
				for _, from := range lc.Held {
					s.globalEdges = append(s.globalEdges, LockOrderEdge{
						From: from,
						To:   to,
						Via:  lc.Callee,
						Pos:  lc.Pos,
					})
				}
			}
		}
	}
}

func sortedAcquireMap(m map[string]LockAcquire) []LockAcquire {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]LockAcquire, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// ModulePath extracts the leading module segment of an import path
// ("gdbm/internal/algo" → "gdbm"); analyzers use it to separate
// module-internal types from vendored or standard-library ones.
func ModulePath(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

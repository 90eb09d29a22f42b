package plan

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// Regular path queries ("regular simple paths" in the survey) match paths
// whose edge-label word belongs to a regular language. The expression syntax
// over edge labels is:
//
//	knows                 a single label
//	a/b                   concatenation
//	a|b                   alternation
//	a*  a+  a?            closure, plus, option
//	<a                    traverse label a against edge direction
//	(a|b)/c               grouping
//
// An expression compiles to its position automaton: a start state plus one
// state per label atom, entered by a step along that atom's label, with no
// epsilon moves. PathExpand walks the product of the graph and the
// automaton. A gql var-length edge -[:l*m..n]- is the one-state automaton
// l* with its bounds applied as a depth filter.

// PathSemantics selects which walks a path expression reads.
type PathSemantics uint8

const (
	// Reachability: every node at the end of an accepted walk, found at the
	// least length of such a walk. Tractable: each (node, state) pair of
	// the product is visited once.
	Reachability PathSemantics = iota
	// SimplePaths: every node at the end of an accepted path that repeats
	// no node. NP-complete in general; enumerated under a fixed budget, and
	// an error once it runs out.
	SimplePaths
)

// simplePathBudget bounds the product pairs a simple-path search may visit.
const simplePathBudget = 1 << 20

// pathStep is one transition of a compiled expression: an edge carrying
// label ("" = any), walked in dir, moves the automaton to state to. Each
// costs one adjacency call per node it leaves.
type pathStep struct {
	label string
	dir   model.Direction
	to    int
}

// PathExpr is a compiled regular path expression: an automaton whose state
// 0 is the start.
type PathExpr struct {
	steps  [][]pathStep
	accept []bool
	source string
}

// String returns the original expression text, or label* for a gql
// var-length edge's automaton.
func (p *PathExpr) String() string {
	if p.source == "" {
		return p.steps[0][0].label + "*"
	}
	return p.source
}

// labelStar is the automaton of a gql var-length edge: label* over edges
// walked in dir, one accepting state with one step back to itself. A
// compile builds one per var-length edge, so it is one allocation.
func labelStar(label string, dir model.Direction) *PathExpr {
	s := &struct {
		PathExpr
		steps [1][]pathStep
		step  [1]pathStep
	}{}
	s.step[0] = pathStep{label: label, dir: dir}
	s.steps[0] = s.step[:]
	s.PathExpr = PathExpr{steps: s.steps[:], accept: acceptAtStart}
	return &s.PathExpr
}

// acceptAtStart is the shared, read-only accept set of every labelStar.
var acceptAtStart = []bool{true}

// CompilePathExpr parses and compiles a regular path expression.
func CompilePathExpr(expr string) (*PathExpr, error) {
	p := &rpqParser{input: expr, steps: [][]pathStep{nil}}
	f, err := p.parseAlternation()
	if err != nil {
		return nil, fmt.Errorf("path expression %q: %w", expr, err)
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("path expression %q: unexpected %q at offset %d", expr, p.input[p.pos], p.pos)
	}
	pe := &PathExpr{steps: p.steps, accept: make([]bool, len(p.steps)), source: expr}
	pe.steps[0], pe.accept[0] = f.first, f.nullable
	for _, s := range f.last {
		pe.accept[s] = true
	}
	return pe, nil
}

// fragment describes a subexpression by its label atoms: whether it
// matches the empty word, the steps entering the atoms a match can start
// with, and the states of the atoms it can end with.
type fragment struct {
	nullable bool
	first    []pathStep
	last     []int
}

// rpqParser builds the automaton as it parses: steps holds each state's
// transitions, those of state 0 filled in once the whole expression is read.
type rpqParser struct {
	input string
	pos   int
	steps [][]pathStep
}

// follow lets a match that ends at any of the states last continue with
// any of the steps first.
func (p *rpqParser) follow(last []int, first []pathStep) {
	for _, s := range last {
		for _, st := range first {
			if !slices.Contains(p.steps[s], st) {
				p.steps[s] = append(p.steps[s], st)
			}
		}
	}
}

func (p *rpqParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *rpqParser) peek() byte {
	if p.pos < len(p.input) {
		return p.input[p.pos]
	}
	return 0
}

// alternation := concat ('|' concat)*
func (p *rpqParser) parseAlternation() (fragment, error) {
	f, err := p.parseConcat()
	for err == nil {
		p.skipSpace()
		if p.peek() != '|' {
			return f, nil
		}
		p.pos++
		var g fragment
		if g, err = p.parseConcat(); err == nil {
			f = fragment{f.nullable || g.nullable, slices.Concat(f.first, g.first), slices.Concat(f.last, g.last)}
		}
	}
	return fragment{}, err
}

// concat := unary ('/' unary)*
func (p *rpqParser) parseConcat() (fragment, error) {
	f, err := p.parseUnary()
	for err == nil {
		p.skipSpace()
		if p.peek() != '/' {
			return f, nil
		}
		p.pos++
		var g fragment
		if g, err = p.parseUnary(); err == nil {
			p.follow(f.last, g.first)
			first, last := f.first, g.last
			if f.nullable {
				first = slices.Concat(f.first, g.first)
			}
			if g.nullable {
				last = slices.Concat(f.last, g.last)
			}
			f = fragment{f.nullable && g.nullable, first, last}
		}
	}
	return fragment{}, err
}

// unary := atom ('*' | '+' | '?')?
func (p *rpqParser) parseUnary() (fragment, error) {
	f, err := p.parseAtom()
	if err != nil {
		return fragment{}, err
	}
	p.skipSpace()
	switch p.peek() {
	case '*':
		p.follow(f.last, f.first)
		f.nullable = true
	case '+':
		p.follow(f.last, f.first)
	case '?':
		f.nullable = true
	default:
		return f, nil
	}
	p.pos++
	return f, nil
}

// atom := '(' alternation ')' | '<'? label
func (p *rpqParser) parseAtom() (fragment, error) {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		f, err := p.parseAlternation()
		if err != nil {
			return fragment{}, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return fragment{}, fmt.Errorf("missing ')' at offset %d", p.pos)
		}
		p.pos++
		return f, nil
	}
	dir := model.Out
	if p.peek() == '<' {
		dir = model.In
		p.pos++
	}
	start := p.pos
	for p.pos < len(p.input) && !strings.ContainsRune("|/*+?()< \t", rune(p.input[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return fragment{}, fmt.Errorf("expected a label at offset %d", p.pos)
	}
	state := len(p.steps)
	p.steps = append(p.steps, nil)
	return fragment{first: []pathStep{{label: p.input[start:p.pos], dir: dir, to: state}}, last: []int{state}}, nil
}

// PathExpand binds ToVar to every node that the node bound to FromVar
// reaches along a path whose label word Path accepts, each node once, and
// checks that path instead if ToVar is already bound. Under Reachability a
// node counts at the least length of an accepted walk, and is bound only if
// that length lies in Min..Max (Max 0 = unbounded): over a→b→c→b,
// (a)-[:r*2..3]->(y) binds c alone, although the walk a→b→c→b has length 3.
// Under SimplePaths a node is bound if some accepted path of such a length
// repeats no node. Nodes are bound in order of the length they are found
// at, and a record is loaded only if ToVar is read. This is the operator
// behind gql's (a)-[:knows*1..3]->(b) — the reachability-inside-the-language
// capability the survey's conclusion asks of a graph query language — and,
// through MatchPath, behind the facade's and pastql's path expressions.
type PathExpand struct {
	Child     Op
	FromVar   string
	ToVar     string
	Path      *PathExpr
	Min, Max  int
	Semantics PathSemantics

	stage
	from, to int // slots; from -1 when absent
	toBound  bool
}

// Run implements Op.
func (x *PathExpand) Run(src Source, emit func(query.Row) error) error {
	if x.Min < 0 {
		return fmt.Errorf("pathexpand: negative minimum length")
	}
	w := newPathWalker(src, x.Path, x.Min, x.Max, !x.toBound && x.sc.Read[x.to])
	var row query.Row
	send := func(n model.Node) error {
		if x.toBound {
			if b := row[x.to]; b.Kind != query.EntryNode || b.Node.ID != n.ID {
				return nil
			}
		} else {
			row[x.to] = query.NodeEntry(n)
		}
		return emit(row)
	}
	return x.Child.Run(src, func(r query.Row) error {
		if x.from < 0 || r[x.from].Kind != query.EntryNode {
			return fmt.Errorf("pathexpand: %q is not a bound node", x.FromVar)
		}
		row = r
		return w.run(r[x.from].Node, x.Semantics, send)
	})
}

// String implements Op.
func (x *PathExpand) String() string {
	mode := ""
	if x.Semantics == SimplePaths {
		mode = " simple"
	}
	return fmt.Sprintf("%s -> PathExpand(%s-[%s %d..%d%s]-%s)",
		x.Child, x.FromVar, x.Path, x.Min, x.Max, mode, x.ToVar)
}

// MatchPath returns the nodes that start reaches along a path whose label
// word p accepts, under sem, in the order PathExpand binds them: it runs
// PathExpand, unbounded, on one row holding start. The search runs under
// ctx.
func MatchPath(ctx context.Context, g model.Graph, p *PathExpr, start model.NodeID, sem PathSemantics) ([]model.NodeID, error) {
	src, ok := g.(Source)
	if !ok {
		src = UnindexedSource{g}
	}
	src = WithCancel(ctx, src)
	from, err := src.Node(start)
	if err != nil {
		return nil, err
	}
	op := &PathExpand{Child: &nodeRow{Var: "start", Node: from}, FromVar: "start", ToVar: "end", Path: p, Semantics: sem}
	bindTree(op)
	var out []model.NodeID
	err = op.Run(src, func(row query.Row) error {
		out = append(out, row[op.to].Node.ID)
		return nil
	})
	return out, err
}

// Walk visits what start reaches along edges walked in dir, breadth first:
// start at depth 0, then every other node once, at its least depth, in the
// order PathExpand binds the walk _* from start — by depth, then in the
// store's Neighbors order. Each node comes with the node it was first
// reached from and the edge it came through; start comes with both zero.
// max bounds the depth (0 = unbounded). Walk stops, returning nil, once
// visit returns false. It reads a store's id pairs where it has them, and
// runs under ctx: checked before the walk, as the walk enters each depth,
// and every cancelStride reads.
func Walk(ctx context.Context, g model.Graph, start model.NodeID, dir model.Direction, max int, visit func(n, from model.NodeID, via model.EdgeID, depth int) bool) error {
	src, ok := g.(Source)
	if !ok {
		src = UnindexedSource{g}
	}
	src = WithCancel(ctx, src)
	first, err := src.Node(start) // WithCancel's first read checks ctx
	if err != nil {
		return err
	}
	w := newPathWalker(src, labelStar("", dir), 0, max, false)
	depth := 0
	err = w.run(first, Reachability, func(n model.Node) error {
		if w.depth != depth {
			depth = w.depth
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !visit(n.ID, w.from, w.via, depth) {
			return errStop
		}
		return nil
	})
	if err == errStop {
		return nil
	}
	return err
}

// nodeRow is a leaf that emits one row, binding Var to Node.
type nodeRow struct {
	Var  string
	Node model.Node

	stage
	slot int
}

// Run implements Op.
func (r *nodeRow) Run(_ Source, emit func(query.Row) error) error {
	row := make(query.Row, len(r.sc.Names))
	row[r.slot] = query.NodeEntry(r.Node)
	return emit(row)
}

// String implements Op.
func (r *nodeRow) String() string { return fmt.Sprintf("NodeRow(%s=%d)", r.Var, r.Node.ID) }

// pathPair is a state of the product of the graph and the automaton.
type pathPair struct {
	node  model.NodeID
	state int
}

// pathWalker holds one PathExpand's search state, reused from row to row.
type pathWalker struct {
	src      Source
	p        *PathExpr
	min, max int
	load     bool // ToVar is read: a node handed out as an id gets its record
	emit     func(model.Node) error

	// seen holds, per automaton state, the nodes visited in it under
	// reachability, and under simple paths the nodes bound, in state 0.
	seen  []map[model.NodeID]struct{}
	queue []pathPair // reachability: the pairs in visiting order
	to    int        // reachability: the state the step being expanded enters
	depth int
	visit func(model.Edge, model.Node, bool) error // visitReach, bound once
	buf   []model.NeighborID
	from  model.NodeID // reachability: the node being expanded
	via   model.EdgeID // reachability: the edge to the node being bound

	path   []model.NodeID // simple paths: the nodes on the current path
	budget int
}

func newPathWalker(src Source, p *PathExpr, min, max int, load bool) *pathWalker {
	w := &pathWalker{src: src, p: p, min: min, max: max, load: load}
	w.visit = w.visitReach
	return w
}

func (w *pathWalker) run(from model.Node, sem PathSemantics, emit func(model.Node) error) error {
	w.emit = emit
	if w.seen == nil {
		w.seen = make([]map[model.NodeID]struct{}, len(w.p.accept))
		for q := range w.seen {
			w.seen[q] = map[model.NodeID]struct{}{}
		}
	}
	for _, m := range w.seen {
		clear(m)
	}
	if sem == SimplePaths {
		w.path = append(w.path[:0], from.ID)
		w.budget = simplePathBudget
		return w.simple(from, true, 0, 0)
	}
	return w.reach(from)
}

// bind emits n, with its record if it came as an id and is read.
func (w *pathWalker) bind(n model.Node, records bool) (err error) {
	if w.load && !records {
		if n, err = w.src.Node(n.ID); err != nil {
			return err
		}
	}
	return w.emit(n)
}

// reach is the level-by-level search of the product: a pair is visited
// once, at its least depth, and a node is accepted at its first pair in an
// accepting state, and bound then if that depth lies within [min, max].
func (w *pathWalker) reach(from model.Node) error {
	start := pathPair{from.ID, 0}
	w.seen[0][from.ID] = struct{}{}
	if w.p.accept[0] && w.min == 0 {
		if err := w.emit(from); err != nil {
			return err
		}
	}
	w.queue = append(w.queue[:0], start)
	lo := 0
	for w.depth = 1; lo < len(w.queue) && (w.max == 0 || w.depth <= w.max); w.depth++ {
		hi := len(w.queue)
		for _, e := range w.queue[lo:hi] {
			w.from = e.node
			for _, st := range w.p.steps[e.state] {
				w.to = st.to
				if err := eachNeighbor(w.src, &w.buf, e.node, st.dir, st.label, w.visit); err != nil {
					return err
				}
			}
		}
		lo = hi
	}
	return nil
}

func (w *pathWalker) visitReach(e model.Edge, n model.Node, records bool) error {
	seen := w.seen[w.to]
	had := len(seen)
	if seen[n.ID] = struct{}{}; len(seen) == had {
		return nil // one hash per pair: the insert tells a new node by the count
	}
	pair := pathPair{n.ID, w.to}
	if w.max == 0 || w.depth < w.max { // a pair at depth max is never expanded
		w.queue = append(w.queue, pair)
	}
	if w.p.accept[w.to] && w.depth >= w.min && w.firstAcceptance(pair) {
		w.via = e.ID
		return w.bind(n, records)
	}
	return nil
}

// firstAcceptance reports whether pair, just visited in an accepting state,
// is its node's first pair in one.
func (w *pathWalker) firstAcceptance(pair pathPair) bool {
	for q, acc := range w.p.accept {
		if !acc || q == pair.state {
			continue
		}
		if _, ok := w.seen[q][pair.node]; ok {
			return false
		}
	}
	return true
}

// simple enumerates the accepted paths from n, in state at depth, that
// repeat no node of w.path, depth first. records says whether n came as a
// record.
func (w *pathWalker) simple(n model.Node, records bool, state, depth int) error {
	if w.budget--; w.budget < 0 {
		return fmt.Errorf("plan: simple-path search from node %d visited more than %d states", w.path[0], simplePathBudget)
	}
	if w.p.accept[state] && depth >= w.min {
		if _, done := w.seen[0][n.ID]; !done {
			w.seen[0][n.ID] = struct{}{}
			if err := w.bind(n, records); err != nil {
				return err
			}
		}
	}
	if w.max > 0 && depth == w.max {
		return nil
	}
	var buf []model.NeighborID // the recursion below must not expand into it
	for _, st := range w.p.steps[state] {
		err := eachNeighbor(w.src, &buf, n.ID, st.dir, st.label, func(_ model.Edge, m model.Node, records bool) error {
			if slices.Contains(w.path, m.ID) {
				return nil
			}
			w.path = append(w.path, m.ID)
			err := w.simple(m, records, st.to, depth+1)
			w.path = w.path[:len(w.path)-1]
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

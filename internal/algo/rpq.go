package algo

import (
	"fmt"
	"sort"
	"strings"

	"gdbm/internal/model"
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
// Expressions compile to a Thompson NFA; evaluation runs a BFS over the
// product of the graph and the automaton, which avoids enumerating paths
// (the naive strategy the ablation bench compares against).

// nfa states are numbered; transitions carry a label ("" = epsilon) and a
// direction flag.
type nfaEdge struct {
	label   string
	inverse bool
	to      int
	eps     bool
}

type nfa struct {
	edges [][]nfaEdge
	start int
	final int
}

func (a *nfa) newState() int {
	a.edges = append(a.edges, nil)
	return len(a.edges) - 1
}

func (a *nfa) addEps(from, to int) {
	a.edges[from] = append(a.edges[from], nfaEdge{eps: true, to: to})
}

func (a *nfa) addLabel(from, to int, label string, inverse bool) {
	a.edges[from] = append(a.edges[from], nfaEdge{label: label, inverse: inverse, to: to})
}

// fragment is a partial automaton with one entry and one exit state.
type fragment struct{ in, out int }

// PathExpr is a compiled regular path expression.
type PathExpr struct {
	a      *nfa
	source string
}

// String returns the original expression text.
func (p *PathExpr) String() string { return p.source }

// CompilePathExpr parses and compiles a regular path expression.
func CompilePathExpr(expr string) (*PathExpr, error) {
	p := &rpqParser{input: expr, a: &nfa{}}
	frag, err := p.parseAlternation()
	if err != nil {
		return nil, fmt.Errorf("path expression %q: %w", expr, err)
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("path expression %q: unexpected %q at offset %d", expr, p.input[p.pos], p.pos)
	}
	p.a.start = frag.in
	p.a.final = frag.out
	return &PathExpr{a: p.a, source: expr}, nil
}

type rpqParser struct {
	input string
	pos   int
	a     *nfa
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
	first, err := p.parseConcat()
	if err != nil {
		return fragment{}, err
	}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			return first, nil
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return fragment{}, err
		}
		in, out := p.a.newState(), p.a.newState()
		p.a.addEps(in, first.in)
		p.a.addEps(in, next.in)
		p.a.addEps(first.out, out)
		p.a.addEps(next.out, out)
		first = fragment{in, out}
	}
}

// concat := unary ('/' unary)*
func (p *rpqParser) parseConcat() (fragment, error) {
	first, err := p.parseUnary()
	if err != nil {
		return fragment{}, err
	}
	for {
		p.skipSpace()
		if p.peek() != '/' {
			return first, nil
		}
		p.pos++
		next, err := p.parseUnary()
		if err != nil {
			return fragment{}, err
		}
		p.a.addEps(first.out, next.in)
		first = fragment{first.in, next.out}
	}
}

// unary := atom ('*' | '+' | '?')?
func (p *rpqParser) parseUnary() (fragment, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return fragment{}, err
	}
	p.skipSpace()
	switch p.peek() {
	case '*':
		p.pos++
		in, out := p.a.newState(), p.a.newState()
		p.a.addEps(in, atom.in)
		p.a.addEps(in, out)
		p.a.addEps(atom.out, atom.in)
		p.a.addEps(atom.out, out)
		return fragment{in, out}, nil
	case '+':
		p.pos++
		in, out := p.a.newState(), p.a.newState()
		p.a.addEps(in, atom.in)
		p.a.addEps(atom.out, atom.in)
		p.a.addEps(atom.out, out)
		return fragment{in, out}, nil
	case '?':
		p.pos++
		in, out := p.a.newState(), p.a.newState()
		p.a.addEps(in, atom.in)
		p.a.addEps(in, out)
		p.a.addEps(atom.out, out)
		return fragment{in, out}, nil
	}
	return atom, nil
}

// atom := '(' alternation ')' | '<'? label
func (p *rpqParser) parseAtom() (fragment, error) {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		frag, err := p.parseAlternation()
		if err != nil {
			return fragment{}, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return fragment{}, fmt.Errorf("missing ')' at offset %d", p.pos)
		}
		p.pos++
		return frag, nil
	}
	inverse := false
	if p.peek() == '<' {
		inverse = true
		p.pos++
	}
	start := p.pos
	for p.pos < len(p.input) && !strings.ContainsRune("|/*+?()< \t", rune(p.input[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return fragment{}, fmt.Errorf("expected a label at offset %d", p.pos)
	}
	label := p.input[start:p.pos]
	in, out := p.a.newState(), p.a.newState()
	p.a.addLabel(in, out, label, inverse)
	return fragment{in, out}, nil
}

// productState pairs a graph node with an automaton state.
type productState struct {
	node  model.NodeID
	state int
}

// sortedStates returns the states of a set in ascending order, so product
// searches expand automaton states in a deterministic order regardless of
// map iteration.
func sortedStates(states map[int]bool) []int {
	out := make([]int, 0, len(states))
	for s := range states {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// epsClosure expands a set of automaton states through epsilon edges.
func (a *nfa) epsClosure(states map[int]bool) {
	stack := make([]int, 0, len(states))
	for s := range states {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.edges[s] {
			if e.eps && !states[e.to] {
				states[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
}

// Eval returns every node reachable from start by a path whose label word
// matches the expression. It runs BFS on the product graph; each
// (node, state) pair is visited once, so the cost is O(|V|·|Q| + |E|·|Q|).
// Automaton states are expanded in ascending order, so the result order is
// deterministic whenever the graph's Neighbors order is.
func (p *PathExpr) Eval(g model.Graph, start model.NodeID) ([]model.NodeID, error) {
	if _, err := g.Node(start); err != nil {
		return nil, err
	}
	a := p.a
	startSet := map[int]bool{a.start: true}
	a.epsClosure(startSet)

	visited := map[productState]bool{}
	var queue []productState
	push := func(n model.NodeID, states map[int]bool) {
		for _, s := range sortedStates(states) {
			ps := productState{n, s}
			if !visited[ps] {
				visited[ps] = true
				queue = append(queue, ps)
			}
		}
	}
	push(start, startSet)

	resultSet := map[model.NodeID]bool{}
	var results []model.NodeID
	accept := func(n model.NodeID, s int) {
		if s == a.final && !resultSet[n] {
			resultSet[n] = true
			results = append(results, n)
		}
	}
	for _, ps := range queue {
		accept(ps.node, ps.state)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ae := range a.edges[cur.state] {
			if ae.eps {
				continue
			}
			dir := model.Out
			if ae.inverse {
				dir = model.In
			}
			err := g.Neighbors(cur.node, dir, func(e model.Edge, n model.Node) bool {
				if e.Label != ae.label {
					return true
				}
				next := map[int]bool{ae.to: true}
				a.epsClosure(next)
				for _, s := range sortedStates(next) {
					ps := productState{n.ID, s}
					if !visited[ps] {
						visited[ps] = true
						queue = append(queue, ps)
						accept(n.ID, s)
					}
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// EvalNaive answers the query by enumerating simple paths up to maxDepth and
// testing each word against the automaton. This is the *simple-path*
// semantics the survey notes is NP-complete; Eval uses the tractable
// reachability semantics. On acyclic graphs (or when no matching path needs
// to revisit a node) the two agree, which the tests exploit; EvalNaive is
// also the baseline for BenchmarkAblationRPQ.
func (p *PathExpr) EvalNaive(g model.Graph, start model.NodeID, maxDepth int) ([]model.NodeID, error) {
	if _, err := g.Node(start); err != nil {
		return nil, err
	}
	resultSet := map[model.NodeID]bool{}
	var results []model.NodeID
	var word []struct {
		label   string
		inverse bool
	}
	onPath := map[model.NodeID]bool{start: true}
	var dfs func(at model.NodeID, depth int) error
	check := func(n model.NodeID) {
		if !resultSet[n] && p.accepts(word) {
			resultSet[n] = true
			results = append(results, n)
		}
	}
	dfs = func(at model.NodeID, depth int) error {
		check(at)
		if depth == maxDepth {
			return nil
		}
		for _, dirCase := range []struct {
			dir model.Direction
			inv bool
		}{{model.Out, false}, {model.In, true}} {
			var steps []struct {
				label string
				node  model.NodeID
			}
			err := g.Neighbors(at, dirCase.dir, func(e model.Edge, n model.Node) bool {
				steps = append(steps, struct {
					label string
					node  model.NodeID
				}{e.Label, n.ID})
				return true
			})
			if err != nil {
				return err
			}
			for _, s := range steps {
				if onPath[s.node] {
					continue
				}
				onPath[s.node] = true
				word = append(word, struct {
					label   string
					inverse bool
				}{s.label, dirCase.inv})
				if err := dfs(s.node, depth+1); err != nil {
					return err
				}
				word = word[:len(word)-1]
				delete(onPath, s.node)
			}
		}
		return nil
	}
	if err := dfs(start, 0); err != nil {
		return nil, err
	}
	return results, nil
}

func (p *PathExpr) accepts(word []struct {
	label   string
	inverse bool
}) bool {
	states := map[int]bool{p.a.start: true}
	p.a.epsClosure(states)
	for _, sym := range word {
		next := map[int]bool{}
		for s := range states {
			for _, e := range p.a.edges[s] {
				if !e.eps && e.label == sym.label && e.inverse == sym.inverse {
					next[e.to] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		p.a.epsClosure(next)
		states = next
	}
	return states[p.a.final]
}

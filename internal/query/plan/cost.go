package plan

import (
	"math"

	"gdbm/internal/query/stats"
)

// varLenDefaultMax bounds the fanout model of an unbounded var-length edge:
// past a few hops the reachable set saturates toward the whole graph, which
// the estimator caps at anyway, so deeper modelling buys nothing.
const varLenDefaultMax = 3

// estFloor keeps intermediate estimates strictly positive so products and
// ratios stay ordered; zero-cardinality inputs still plan deterministically.
const estFloor = 1e-6

// Estimate is the cost model's verdict on a compiled plan: Rows is the
// expected output cardinality of the pattern subtree, Cost the expected
// number of row visits across all operators (scan rows read + expansions
// performed). Both are order-of-magnitude instruments, not predictions.
type Estimate struct {
	Rows float64
	Cost float64
}

// Planner is the cost-based compiler. Stats drives cardinality estimation
// (nil falls back to uniform textbook assumptions — still deterministic);
// WCO additionally enables the multiway-intersection operator for nodes
// that close two or more edges to already-bound nodes (the cyclic cores:
// triangles, diamonds).
type Planner struct {
	Stats *stats.Stats
	WCO   bool
}

// candidate is one considered planning action: bind node `node` by either a
// single cheapest Expand (edges has one entry) or a multiway intersection
// (edges has several). rows/cost estimate the state after applying it.
type candidate struct {
	node      int
	rank      int // canonical rank of node (canon.go), the final tie-break
	edges     []int
	intersect bool
	rows      float64
	cost      float64
}

// better orders candidates: fewest estimated rows, then least cost, then
// lowest canonical node rank. Ranking on canonical structure — never on a
// declaration index — is what makes the estimate invariant under pattern
// permutation; the relative epsilon absorbs the float noise different
// summation orders introduce.
func better(a, b candidate) bool {
	const eps = 1e-9
	if a.rows < b.rows*(1-eps) {
		return true
	}
	if b.rows < a.rows*(1-eps) {
		return false
	}
	if a.cost < b.cost*(1-eps) {
		return true
	}
	if b.cost < a.cost*(1-eps) {
		return false
	}
	return a.rank < b.rank
}

// Compile turns a MatchSpec into an operator tree ordered by estimated
// cost: it starts from the cheapest node pattern, then greedily applies
// whichever action — single-edge expansion, multiway intersection (when
// WCO), or cross-scan for disconnected components — yields the fewest
// estimated rows. Edges between two bound nodes are closed as connectivity
// checks as soon as both ends bind. The produced tree uses exactly the
// operators the naive planner uses (plus IntersectExpand under WCO), and
// applyModifiers is shared, so results are answer-equivalent by
// construction; only the join order differs.
func (p Planner) Compile(spec *MatchSpec) (Op, Estimate, error) {
	if err := prepare(spec); err != nil {
		return nil, Estimate{}, err
	}
	st := p.Stats
	cn := canonicalize(spec)
	n := len(spec.Nodes)
	bound := make([]bool, n)
	edgeDone := make([]bool, len(spec.Edges))
	est := Estimate{Rows: 1}
	var root Op

	total := st.CountNodes("")
	if total < 1 {
		total = 1
	}

	// nodeCard estimates how many nodes match pattern i's label and
	// property equalities.
	nodeCard := func(i int) float64 {
		np := spec.Nodes[i]
		c := st.CountNodes(np.Label)
		for prop := range np.Props {
			c *= st.PropSelectivity(np.Label, prop)
		}
		if c < estFloor {
			c = estFloor
		}
		return c
	}
	// nodeSel is the fraction of all nodes matching pattern i — the filter
	// selectivity applied to an expansion's endpoints.
	nodeSel := func(i int) float64 {
		s := nodeCard(i) / total
		if s > 1 {
			s = 1
		}
		return s
	}
	// scanRows is how many rows a scan of pattern i reads: the label
	// partition when labelled (engines index labels), the full node set
	// otherwise.
	scanRows := func(i int) float64 {
		if spec.Nodes[i].Label != "" {
			return st.CountNodes(spec.Nodes[i].Label)
		}
		return total
	}
	// edgeFan is the expansion factor of edge ei traversed out of endpoint
	// fromIdx; var-length edges model geometric growth to their effective
	// maximum depth, capped at the graph order.
	edgeFan := func(ei, fromIdx int) float64 {
		e := spec.Edges[ei]
		dir := e.Dir
		if fromIdx == e.To {
			dir = dir.Reverse()
		}
		f := st.Fanout(e.Label, dir)
		if e.VarLength {
			max := e.Max
			if max <= 0 || max > varLenDefaultMax {
				max = varLenDefaultMax
			}
			sum, step := 0.0, 1.0
			for d := 1; d <= max; d++ {
				step *= f
				sum += step
				if sum > total {
					sum = total
					break
				}
			}
			if e.Min == 0 {
				sum++
			}
			f = sum
		}
		if f < estFloor {
			f = estFloor
		}
		return f
	}

	// expandOp builds the same physical op the naive planner would for edge
	// ei traversed from fromIdx to toIdx.
	expandOp := func(child Op, ei, fromIdx, toIdx int) Op {
		e := spec.Edges[ei]
		dir := e.Dir
		if fromIdx == e.To {
			dir = dir.Reverse()
		}
		return edgeOp(child, e, spec.Nodes[fromIdx].Var, spec.Nodes[toIdx].Var, dir)
	}

	// closeChecks applies every pending edge whose endpoints are both bound
	// as a connectivity check, in canonical edge order (so the cost sum is
	// declaration-order independent).
	closeChecks := func() {
		for _, ei := range cn.edgeOrder {
			e := spec.Edges[ei]
			if edgeDone[ei] || !bound[e.From] || !bound[e.To] {
				continue
			}
			f := edgeFan(ei, e.From)
			root = expandOp(root, ei, e.From, e.To)
			est.Cost += est.Rows * f
			est.Rows *= f / total
			if est.Rows < estFloor {
				est.Rows = estFloor
			}
			edgeDone[ei] = true
		}
	}

	// crossScan binds node i by scanning it against the current rows (or as
	// the leaf scan when the tree is empty).
	crossScan := func(i int) {
		np := spec.Nodes[i]
		scan := &NodeScan{Var: np.Var, Label: np.Label, PropEq: np.Props}
		if root != nil {
			scan.Child = root
		}
		root = scan
		est.Cost += est.Rows * scanRows(i)
		est.Rows *= nodeCard(i)
		bound[i] = true
	}

	for {
		closeChecks()
		if allTrue(bound) && allTrue(edgeDone) {
			break
		}

		var best candidate
		found := false
		consider := func(c candidate) {
			if c.rows < estFloor {
				c.rows = estFloor
			}
			if !found || better(c, best) {
				best, found = c, true
			}
		}
		for _, i := range cn.nodeOrder {
			if bound[i] {
				continue
			}
			// Edges linking i to a bound endpoint, in canonical order.
			var link, isect []int
			for _, ei := range cn.edgeOrder {
				e := spec.Edges[ei]
				if edgeDone[ei] {
					continue
				}
				if (e.From == i && bound[e.To]) || (e.To == i && bound[e.From]) {
					link = append(link, ei)
					if !e.VarLength && e.Var == "" {
						isect = append(isect, ei)
					}
				}
			}
			if len(link) == 0 {
				continue
			}
			if p.WCO && len(isect) >= 2 {
				// Multiway intersection: each list costs one fanout to
				// enumerate; the result keeps only IDs common to all
				// lists, so each extra list divides rows by the graph
				// order.
				prod, sum := 1.0, 0.0
				for _, ei := range isect {
					e := spec.Edges[ei]
					from := e.From
					if from == i {
						from = e.To
					}
					f := edgeFan(ei, from)
					prod *= f
					sum += f
				}
				rows := est.Rows * prod / math.Pow(total, float64(len(isect)-1)) * nodeSel(i)
				consider(candidate{node: i, rank: cn.nodeRank[i], edges: isect, intersect: true, rows: rows, cost: est.Rows * sum})
			}
			// Single-edge expansion through the cheapest linking edge; link
			// is in canonical order, so first-wins ties canonically.
			bestEi, bestF := -1, 0.0
			for _, ei := range link {
				e := spec.Edges[ei]
				from := e.From
				if from == i {
					from = e.To
				}
				f := edgeFan(ei, from)
				if bestEi == -1 || f < bestF {
					bestEi, bestF = ei, f
				}
			}
			consider(candidate{node: i, rank: cn.nodeRank[i], edges: []int{bestEi}, rows: est.Rows * bestF * nodeSel(i), cost: est.Rows * bestF})
		}

		if !found {
			// Disconnected component (or nothing bound yet): scan the
			// cheapest unbound node pattern. Canonical iteration order makes
			// exact-tie winners declaration-order independent.
			next := -1
			for _, i := range cn.nodeOrder {
				if !bound[i] && (next == -1 || nodeCard(i) < nodeCard(next)) {
					next = i
				}
			}
			if next == -1 {
				break
			}
			crossScan(next)
			continue
		}

		if best.intersect {
			inputs := make([]IntersectInput, len(best.edges))
			for k, ei := range best.edges {
				e := spec.Edges[ei]
				from, dir := e.From, e.Dir
				if from == best.node {
					from, dir = e.To, e.Dir.Reverse()
				}
				inputs[k] = IntersectInput{FromVar: spec.Nodes[from].Var, Label: e.Label, Dir: dir}
				edgeDone[ei] = true
			}
			root = &IntersectExpand{Child: root, Inputs: inputs, ToVar: spec.Nodes[best.node].Var}
			root = constrainNode(root, spec.Nodes[best.node])
		} else {
			ei := best.edges[0]
			e := spec.Edges[ei]
			from := e.From
			if from == best.node {
				from = e.To
			}
			root = expandOp(root, ei, from, best.node)
			root = constrainNode(root, spec.Nodes[best.node])
			edgeDone[ei] = true
		}
		est.Rows = best.rows
		est.Cost += best.cost
		bound[best.node] = true
	}

	root = applyModifiers(root, spec)
	bindTree(root)
	return root, est, nil
}

// CompileFor compiles spec with the best planner the source supports: when
// src (or what it wraps) publishes planning statistics, the cost-based
// planner with the WCO operator; otherwise the naive declaration-order
// compiler. Statistics errors degrade to the naive plan rather than failing
// the query — plan choice must never make an answerable query error.
func CompileFor(spec *MatchSpec, src Source) (Op, error) {
	if sp, ok := src.(stats.Provider); ok {
		if st, err := sp.PlanStats(); err == nil && st != nil {
			op, _, cerr := Planner{Stats: st, WCO: true}.Compile(spec)
			return op, cerr
		}
	}
	return Compile(spec)
}

package plan

import (
	"fmt"
	"sort"
	"strings"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// IntersectInput is one adjacency list feeding a multiway intersection:
// the neighbors of the node bound to FromVar, in direction Dir, through
// edges carrying Label ("" = any).
type IntersectInput struct {
	FromVar string
	Label   string
	Dir     model.Direction
}

// IntersectExpand is the worst-case-optimal join operator: for each input
// row it intersects the sorted neighbor-ID lists of two or more bound
// nodes and binds ToVar to every node present in all of them. It answers
// exactly what the equivalent Expand chain answers — including row
// multiplicity: the lists keep one entry per parallel edge, so a common
// neighbor reached by m and n parallel edges yields m×n rows, just as two
// stacked Expands would. The win is the work bound: an Expand chain
// enumerates the full fanout of the first edge before filtering, while the
// leapfrog merge touches each list at most once per emitted binding
// (O(min-list × log) per row), which on cyclic patterns — triangles,
// diamonds — is the difference between quadratic and near-output-linear.
type IntersectExpand struct {
	Child  Op
	Inputs []IntersectInput
	ToVar  string

	stage
	from []int // slot per input; -1 when absent
	to   int
}

// neighborRuns is one run-length-encoded sorted adjacency list: ids are
// strictly ascending, counts[i] is how many parallel edges reach ids[i].
type neighborRuns struct {
	ids    []model.NodeID
	counts []int
}

// memoCap bounds the per-Run adjacency memo. Beyond it, lists are
// re-fetched rather than cached — correctness is unaffected, the memo is
// purely a de-duplication of fetch work across input rows.
const memoCap = 4096

type adjKey struct {
	id    model.NodeID
	dir   model.Direction
	label string
}

// Run implements Op.
func (x *IntersectExpand) Run(src Source, emit func(query.Row) error) error {
	if len(x.Inputs) < 2 {
		return fmt.Errorf("intersect: need at least 2 inputs, have %d", len(x.Inputs))
	}
	memo := make(map[adjKey]neighborRuns)
	fetch := func(id model.NodeID, dir model.Direction, label string) (neighborRuns, error) {
		key := adjKey{id: id, dir: dir, label: label}
		if r, ok := memo[key]; ok {
			return r, nil
		}
		ids, err := SortedNeighborIDs(src, id, dir, label)
		if err != nil {
			return neighborRuns{}, err
		}
		var r neighborRuns
		for _, nid := range ids {
			if n := len(r.ids); n > 0 && r.ids[n-1] == nid {
				r.counts[n-1]++
				continue
			}
			r.ids = append(r.ids, nid)
			r.counts = append(r.counts, 1)
		}
		if len(memo) < memoCap {
			memo[key] = r
		}
		return r, nil
	}

	lists := make([]neighborRuns, len(x.Inputs))
	ptr := make([]int, len(x.Inputs))
	loadTo := x.sc.Read[x.to]
	return x.Child.Run(src, func(row query.Row) error {
		for i, in := range x.Inputs {
			if x.from[i] < 0 || row[x.from[i]].Kind != query.EntryNode {
				return fmt.Errorf("intersect: %q is not a bound node", in.FromVar)
			}
			r, err := fetch(row[x.from[i]].Node.ID, in.Dir, in.Label)
			if err != nil {
				return err
			}
			if len(r.ids) == 0 {
				return nil
			}
			lists[i] = r
			ptr[i] = 0
		}
		// Leapfrog: advance every list to the current maximum head; when
		// all heads agree, that ID is in the intersection.
		for {
			var hi model.NodeID
			for i := range lists {
				if ptr[i] >= len(lists[i].ids) {
					return nil
				}
				if id := lists[i].ids[ptr[i]]; id > hi {
					hi = id
				}
			}
			aligned := true
			for i := range lists {
				if lists[i].ids[ptr[i]] == hi {
					continue
				}
				rest := lists[i].ids[ptr[i]:]
				ptr[i] += sort.Search(len(rest), func(j int) bool { return rest[j] >= hi })
				if ptr[i] >= len(lists[i].ids) {
					return nil
				}
				if lists[i].ids[ptr[i]] != hi {
					aligned = false // overshot: hi grew, realign
				}
			}
			if !aligned {
				continue
			}
			mult := 1
			for i := range lists {
				mult *= lists[i].counts[ptr[i]]
				ptr[i]++
			}
			n := model.Node{ID: hi}
			if loadTo {
				var err error
				if n, err = src.Node(hi); err != nil {
					return err
				}
			}
			row[x.to] = query.NodeEntry(n)
			for k := 0; k < mult; k++ {
				if err := emit(row); err != nil {
					return err
				}
			}
		}
	})
}

// String implements Op.
func (x *IntersectExpand) String() string {
	parts := make([]string, len(x.Inputs))
	for i, in := range x.Inputs {
		parts[i] = fmt.Sprintf("%s-[:%s]%s", in.FromVar, in.Label, in.Dir)
	}
	return fmt.Sprintf("%s -> Intersect(%s => %s)", x.Child, strings.Join(parts, " ∩ "), x.ToVar)
}

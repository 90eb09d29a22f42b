package plan

import (
	"fmt"

	"gdbm/internal/model"
	"gdbm/internal/query"
)

// ExpandVar is the variable-length counterpart of Expand: it walks between
// Min and Max edges with the given label from FromVar and binds ToVar to
// each distinct reachable node (BFS semantics: one binding per node, at its
// minimum distance). It implements the reachability-inside-the-language
// capability the survey's conclusion asks of a standard graph query
// language; the gql syntax is (a)-[:knows*1..3]->(b).
type ExpandVar struct {
	Child   Op
	FromVar string
	ToVar   string
	Label   string
	Dir     model.Direction
	Min     int
	Max     int // 0 = unbounded

	stage
	from, to int // slots; from -1 when absent
	toBound  bool
}

// Run implements Op.
func (x *ExpandVar) Run(src Source, emit func(query.Row) error) error {
	if x.Min < 0 {
		return fmt.Errorf("expandvar: negative minimum length")
	}
	var buf []model.NeighborID
	loadTo := !x.toBound && x.sc.Read[x.to]
	return x.Child.Run(src, func(row query.Row) error {
		if x.from < 0 || row[x.from].Kind != query.EntryNode {
			return fmt.Errorf("expandvar: %q is not a bound node", x.FromVar)
		}
		from := row[x.from].Node

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

		// BFS by level over edges with the label, the visited set over ids;
		// a record is loaded only if ToVar is read and this level binds it.
		visited := map[model.NodeID]bool{from.ID: true}
		frontier := []model.Node{from}
		if x.Min == 0 {
			if err := send(from); err != nil {
				return err
			}
		}
		var next []model.Node
		depth := 1
		visit := func(_ model.Edge, n model.Node, records bool) (err error) {
			if visited[n.ID] {
				return nil
			}
			visited[n.ID] = true
			if loadTo && !records && depth >= x.Min {
				if n, err = src.Node(n.ID); err != nil {
					return err
				}
			}
			next = append(next, n)
			return nil
		}
		for ; len(frontier) > 0 && (x.Max == 0 || depth <= x.Max); depth++ {
			next = nil
			for _, cur := range frontier {
				if err := eachNeighbor(src, &buf, cur.ID, x.Dir, x.Label, visit); err != nil {
					return err
				}
			}
			if depth >= x.Min {
				for _, n := range next {
					if err := send(n); err != nil {
						return err
					}
				}
			}
			frontier = next
		}
		return nil
	})
}

// String implements Op.
func (x *ExpandVar) String() string {
	return fmt.Sprintf("%s -> ExpandVar(%s-[:%s*%d..%d]-%s %s)",
		x.Child, x.FromVar, x.Label, x.Min, x.Max, x.ToVar, x.Dir)
}

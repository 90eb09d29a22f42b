package main

import (
	"math"
	"sort"

	"gdbm/internal/gen"
	"gdbm/internal/model"
)

// answer is the checkable digest of a result: its row count and an
// order-independent checksum of its rows. Engines may return rows of an
// unordered query in any order, so rows are summed, not concatenated.
type answer struct {
	rows int
	sum  uint64
}

// rowHash digests one row; every value the workloads return is numeric.
func rowHash(vals ...float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

func (a *answer) add(vals ...float64) {
	a.rows++
	a.sum += rowHash(vals...)
}

func scalar(v float64) answer { return answer{rows: 1, sum: rowHash(v)} }

// oracle holds the expected answer of every read kind from every start
// node. It is computed from the graph regenerated into a gen.MemSink with
// plain loops over slices, so it shares no code with the served path.
type oracle struct {
	nodes    int
	edges    int
	userSize int64 // bytes of user data in the generated graph
	point    []answer
	hop1     []answer
	hop2     []answer
	tri      []answer
	var2     []answer
	hop2rows []answer
}

func (o *oracle) want(k kind, node int) answer {
	switch k {
	case kPoint:
		return o.point[node]
	case kHop1:
		return o.hop1[node]
	case kHop2:
		return o.hop2[node]
	case kTri:
		return o.tri[node]
	case kVar2:
		return o.var2[node]
	case kHop2Rows:
		return o.hop2rows[node]
	}
	return answer{}
}

func graphSpec(nodes int, seed int64) gen.Spec {
	return gen.Spec{Kind: gen.BA, Nodes: nodes, EdgesPerNode: 4, Seed: seed, Labels: []string{"N"}, EdgeLabel: "link"}
}

func newOracle(nodes int, seed int64) (*oracle, error) {
	var g gen.MemSink
	if _, err := gen.Generate(graphSpec(nodes, seed), &g); err != nil {
		return nil, err
	}
	n := len(g.NodesList)
	o := &oracle{nodes: n, edges: len(g.EdgesList)}
	weight := make([]float64, n)
	for i, nd := range g.NodesList {
		weight[i], _ = nd.Props.Get("weight").AsFloat()
		o.userSize += int64(len(nd.Label)) + propBytes(nd.Props)
	}
	// MemSink ids are 1-based positions, and idx is the position.
	out := make([][]int, n)
	both := make([][]int, n)
	for _, e := range g.EdgesList {
		f, t := int(e.From)-1, int(e.To)-1
		out[f] = append(out[f], t)
		both[f] = append(both[f], t)
		both[t] = append(both[t], f)
		o.userSize += int64(len(e.Label)) + 16 + propBytes(e.Props)
	}
	for i := range both {
		sort.Ints(both[i])
	}
	o.point = make([]answer, n)
	o.hop1 = make([]answer, n)
	o.hop2 = make([]answer, n)
	o.tri = make([]answer, n)
	o.var2 = make([]answer, n)
	o.hop2rows = make([]answer, n)
	mark := make([]int, n) // mark[c] = parallel edges between a and c
	for a := 0; a < n; a++ {
		o.point[a] = scalar(weight[a])
		for _, b := range out[a] {
			o.hop1[a].add(float64(b))
		}
		for _, c := range both[a] {
			mark[c]++
		}
		walks, closed := 0, 0
		for _, b := range both[a] {
			for _, c := range both[b] {
				walks++
				closed += mark[c]
				o.hop2rows[a].add(float64(c), weight[c])
			}
		}
		for _, c := range both[a] {
			mark[c]--
		}
		o.hop2[a] = scalar(float64(walks))
		o.tri[a] = scalar(float64(closed))
		// Distinct nodes one or two out-edges away, the start excluded.
		seen := map[int]bool{a: true}
		for _, b := range out[a] {
			seen[b] = true
		}
		for _, b := range out[a] {
			for _, c := range out[b] {
				seen[c] = true
			}
		}
		o.var2[a] = scalar(float64(len(seen) - 1))
	}
	return o, nil
}

// propBytes is the user-data size of a property map: names plus 8 bytes
// per numeric value.
func propBytes(p model.Properties) int64 {
	var n int64
	for k := range p {
		n += int64(len(k)) + 8
	}
	return n
}

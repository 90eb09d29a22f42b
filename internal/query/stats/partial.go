package stats

import (
	"slices"

	"gdbm/internal/model"
)

// Partial is the statistics of one disjoint slice of a graph — in
// practice one immutable ID block of an adjacency snapshot. Every field
// of Stats is a commutative fold over records (counts add, histograms
// add, a KMV sketch of a union is the k smallest hashes of the sketches'
// union), so Merge over the partials of a partition of the graph returns
// exactly what Build returns on the whole. A Partial is immutable.
type Partial struct {
	nodes, edges         int
	nodeLabel, edgeLabel map[string]int
	degHist              [DegBuckets]int
	// distinct sketches values per (label, prop) as stored; the
	// across-labels aggregate Stats keeps under the empty label is derived
	// by Merge, so a block does not hold every sketch twice.
	distinct map[propKey]*KMV
}

type propKey struct{ label, prop string }

// NodePartial returns the statistics of a block of node slots, skipping
// the vacant ones (a zero ID); degree(i) is the Both-direction degree of
// nodes[i].
func NodePartial(nodes []model.Node, degree func(i int) int) *Partial {
	p := &Partial{nodeLabel: map[string]int{}}
	// Hashes are collected per (label, prop) and sketched once at the end:
	// one sort instead of an ordered insert per value.
	hashes := map[propKey][]uint64{}
	var key []byte
	for i := range nodes {
		n := &nodes[i]
		if n.ID == 0 {
			continue
		}
		p.nodes++
		p.nodeLabel[n.Label]++
		p.degHist[degBucket(degree(i))]++
		for prop, v := range n.Props {
			key = v.EncodeKey(key[:0])
			pk := propKey{n.Label, prop}
			hashes[pk] = append(hashes[pk], hashKey(key))
		}
	}
	if len(hashes) > 0 {
		p.distinct = make(map[propKey]*KMV, len(hashes))
	}
	for pk, hs := range hashes {
		slices.Sort(hs)
		hs = slices.Compact(hs)
		// Cloned: the partial lives as long as its block, and must not pin
		// the collection buffer's spare and truncated capacity.
		p.distinct[pk] = &KMV{k: kmvK, hs: slices.Clone(hs[:min(len(hs), kmvK)])}
	}
	return p
}

// EdgePartial returns the statistics of a block of edge slots, skipping
// the vacant ones. Degrees are the node side's business: an edge's
// endpoints may live in other blocks.
func EdgePartial(edges []model.Edge) *Partial {
	p := &Partial{edgeLabel: map[string]int{}}
	for i := range edges {
		if edges[i].ID != 0 {
			p.edges++
			p.edgeLabel[edges[i].Label]++
		}
	}
	return p
}

// Merge folds the partials of a partition of one graph into its Stats at
// epoch. Nil partials are skipped.
func Merge(epoch uint64, parts []*Partial) *Stats {
	s := &Stats{
		Epoch:     epoch,
		NodeLabel: map[string]int{},
		EdgeLabel: map[string]int{},
		distinct:  map[string]*KMV{},
	}
	byLabel := map[propKey]*KMV{}
	var scratch []uint64
	for _, p := range parts {
		if p == nil {
			continue
		}
		s.Nodes += p.nodes
		s.Edges += p.edges
		for l, c := range p.nodeLabel {
			s.NodeLabel[l] += c
		}
		for l, c := range p.edgeLabel {
			s.EdgeLabel[l] += c
		}
		for b, c := range p.degHist {
			s.DegHist[b] += c
		}
		for pk, k := range p.distinct {
			m := byLabel[pk]
			if m == nil {
				m = NewKMV(k.k)
				byLabel[pk] = m
			}
			scratch = m.union(k, scratch)
		}
	}
	// Stats keeps each sketch under its label and, unioned across labels,
	// under the empty one — where the nodes stored without a label already
	// are.
	for pk, m := range byLabel {
		all := "\x00" + pk.prop
		if s.distinct[all] == nil {
			s.distinct[all] = NewKMV(m.k)
		}
		scratch = s.distinct[all].union(m, scratch)
		if pk.label != "" {
			s.distinct[pk.label+all] = m
		}
	}
	return s
}

// union folds o into m, keeping the k smallest distinct hashes of the two.
// scratch is a reusable merge buffer, returned for the next call.
func (m *KMV) union(o *KMV, scratch []uint64) []uint64 {
	a, b := m.hs, o.hs
	out := scratch[:0]
	for len(out) < m.k && (len(a) > 0 || len(b) > 0) {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
			out = append(out, a[0])
			a = a[1:]
		case len(a) == 0 || b[0] < a[0]:
			out = append(out, b[0])
			b = b[1:]
		default: // equal
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	m.hs = append(m.hs[:0], out...)
	return out
}

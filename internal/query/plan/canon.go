package plan

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"

	"gdbm/internal/model"
)

// Pattern canonicalization: the cost-based planner must produce the same
// estimate (and, up to automorphism, the same plan) no matter how the
// pattern was declared — node order, edge order, Both-edge orientation,
// and variable names are all presentation, not semantics. The greedy
// search therefore never tie-breaks on a declaration index; it uses the
// ranks computed here, which derive only from pattern structure via
// Weisfeiler-Leman color refinement over the pattern multigraph.
//
// Nodes left indistinguishable after refinement are automorphic for every
// pattern small enough to plan (1-WL separates non-isomorphic graphs below
// six nodes), so breaking their ties by declaration index cannot change
// any cost: the symmetric choices price identically.
//
// Canonicalization runs on every compile, so it is plain byte work: each
// signature is appended to one reused buffer, sorted as a byte span and
// hashed in place with FNV-64a. The bytes are exactly those of the fmt
// formulation kept in canon_test.go as the reference, so colors, ranks and
// plans match it.

// canonRanks orders pattern nodes and edges canonically. nodeOrder/
// edgeOrder list indices in canonical order; nodeRank/edgeRank invert them.
type canonRanks struct {
	nodeOrder, edgeOrder []int
	nodeRank, edgeRank   []int
}

// canonicalize computes canonRanks for a prepared spec.
func canonicalize(spec *MatchSpec) canonRanks {
	n, m := len(spec.Nodes), len(spec.Edges)
	// A node's round signature lists each incident edge end (a self-loop
	// twice); the edge keys list each edge once. 48 bytes holds a typical
	// signature, so the buffer rarely grows.
	sb := sigBuf{buf: make([]byte, 0, 48*(2*m+n)), spans: make([][2]int, 0, 2*m+n)}
	colors := make([]uint64, 2*n)
	colors, next := colors[:n:n], colors[n:]
	for i, np := range spec.Nodes {
		h := fnvAdd(fnvOffset, np.Label)
		h = fnvAdd(h, "\x00")
		sb.reset()
		for k, v := range np.Props {
			sb.buf = append(sb.buf, k...)
			sb.buf = append(sb.buf, '=')
			sb.buf = v.EncodeKey(sb.buf)
			sb.end()
		}
		colors[i] = sb.hashSorted(h, 1)
	}

	var hex [17]byte
	for round := 0; round < n; round++ {
		for i := range spec.Nodes {
			sb.reset()
			for _, e := range spec.Edges {
				if e.From == i {
					sb.buf = appendEdgeSig(sb.buf, e, i)
					sb.buf = appendHex16(append(sb.buf, '>'), colors[e.To])
					sb.end()
				}
				if e.To == i {
					sb.buf = appendEdgeSig(sb.buf, e, i)
					sb.buf = appendHex16(append(sb.buf, '>'), colors[e.From])
					sb.end()
				}
			}
			h := fnvAdd(fnvOffset, append(appendHex16(hex[:0], colors[i]), '|'))
			next[i] = sb.hashSorted(h, 2)
		}
		colors, next = next, colors
	}

	ints := make([]int, 2*(n+m))
	cr := canonRanks{
		nodeOrder: ints[:n:n],
		nodeRank:  ints[n : 2*n : 2*n],
		edgeOrder: ints[2*n : 2*n+m : 2*n+m],
		edgeRank:  ints[2*n+m:],
	}
	for i := range cr.nodeOrder {
		cr.nodeOrder[i] = i
	}
	slices.SortFunc(cr.nodeOrder, func(a, b int) int {
		if c := cmp.Compare(colors[a], colors[b]); c != 0 {
			return c
		}
		return a - b
	})
	for rank, i := range cr.nodeOrder {
		cr.nodeRank[i] = rank
	}

	// Edge keys combine the refined endpoint colors with the edge's own
	// signature; Both edges use the unordered color pair so reversal
	// cannot move an edge in the canonical order.
	sb.reset()
	for ei, e := range spec.Edges {
		a, b := colors[e.From], colors[e.To]
		if e.Dir == model.Both && a > b {
			a, b = b, a
		}
		sb.buf = appendEdgeSig(sb.buf, e, e.From)
		sb.buf = appendHex16(append(sb.buf, '/'), a)
		sb.buf = appendHex16(append(sb.buf, '/'), b)
		sb.end()
		cr.edgeOrder[ei] = ei
	}
	slices.SortFunc(cr.edgeOrder, func(a, b int) int {
		if c := bytes.Compare(sb.span(a), sb.span(b)); c != 0 {
			return c
		}
		return a - b
	})
	for rank, ei := range cr.edgeOrder {
		cr.edgeRank[ei] = rank
	}
	return cr
}

// appendEdgeSig appends the signature of edge e as seen from endpoint
// from — direction is relative, so a flipped Both edge signs identically.
// Variable names are deliberately absent (renaming is presentation);
// whether an edge binds one is not (it gates WCO eligibility). The layout
// is label/dir/varlength/min/max/hasvar.
func appendEdgeSig(b []byte, e EdgePat, from int) []byte {
	dir := e.Dir
	if from == e.To {
		dir = dir.Reverse()
	}
	b = append(append(b, e.Label...), '/')
	b = append(strconv.AppendUint(b, uint64(dir), 10), '/')
	b = append(strconv.AppendBool(b, e.VarLength), '/')
	b = append(strconv.AppendInt(b, int64(e.Min), 10), '/')
	b = append(strconv.AppendInt(b, int64(e.Max), 10), '/')
	return strconv.AppendBool(b, e.Var != "")
}

// appendHex16 appends x as 16 lowercase hex digits, zero-padded.
func appendHex16(b []byte, x uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[x>>uint(shift)&0xf])
	}
	return b
}

// sigBuf holds a list of byte strings back to back in one buffer; spans
// records where each one starts and stops.
type sigBuf struct {
	buf   []byte
	spans [][2]int
	start int // where the string being appended begins
}

func (s *sigBuf) reset() { s.buf, s.spans, s.start = s.buf[:0], s.spans[:0], 0 }

// end closes the string appended since the previous end.
func (s *sigBuf) end() {
	s.spans = append(s.spans, [2]int{s.start, len(s.buf)})
	s.start = len(s.buf)
}

// span returns the j-th string appended since reset.
func (s *sigBuf) span(j int) []byte { return s.buf[s.spans[j][0]:s.spans[j][1]] }

// hashSorted folds the strings into h in byte order, each followed by sep.
func (s *sigBuf) hashSorted(h uint64, sep byte) uint64 {
	slices.SortFunc(s.spans, func(a, b [2]int) int {
		return bytes.Compare(s.buf[a[0]:a[1]], s.buf[b[0]:b[1]])
	})
	for j := range s.spans {
		h = fnvAdd(h, s.span(j))
		h = (h ^ uint64(sep)) * fnvPrime
	}
	return h
}

// FNV-64a, inline: hash/fnv's Hash64 would cost an allocation per color.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

package main

import (
	"math/rand"
	"strconv"
)

// op is one generated operation. Statements carry their arguments as
// literals: the server's request form has no parameter field.
type op struct {
	k    kind
	node int   // start node (idx) of reads, sets and readbacks
	val  int64 // value written by a set, expected by a readback
	key  int64 // idx of the T node a create makes or a delete removes
	want answer
}

// keyStride separates the T-node key spaces of clients and traced sweeps;
// it is far above any generated idx.
const keyStride = 10_000_000

// stmt renders the operation. keyOff shifts create/delete keys so that a
// traced sweep replaying the same operations touches its own T nodes.
func (o op) stmt(keyOff int64) string {
	n := strconv.Itoa(o.node)
	switch o.k {
	case kPoint:
		return "MATCH (a:N {idx: " + n + "}) RETURN a.weight AS w"
	case kHop1:
		return "MATCH (a:N {idx: " + n + "})-[:link]->(b) RETURN b.idx AS i"
	case kHop2:
		return "MATCH (a:N {idx: " + n + "})-[:link]-(b)-[:link]-(c) RETURN count(*) AS n"
	case kTri:
		return "MATCH (a:N {idx: " + n + "})-[:link]-(b)-[:link]-(c)-[:link]-(a) RETURN count(*) AS n"
	case kVar2:
		return "MATCH (a:N {idx: " + n + "})-[:link*1..2]->(b) RETURN count(*) AS n"
	case kHop2Rows:
		return "MATCH (a:N {idx: " + n + "})-[:link]-(b)-[:link]-(c) RETURN c.idx AS i, c.weight AS w"
	case kReadback:
		return "MATCH (a:N {idx: " + n + "}) RETURN a.hits AS h"
	case kSet:
		return "MATCH (a:N {idx: " + n + "}) SET a.hits = " + strconv.FormatInt(o.val, 10)
	case kCreate:
		return "CREATE (x:T {idx: " + strconv.FormatInt(o.key+keyOff, 10) + ", owner: " + strconv.FormatInt(o.val, 10) + "})"
	case kDelete:
		return "MATCH (x:T {idx: " + strconv.FormatInt(o.key+keyOff, 10) + "}) DELETE x"
	}
	return ""
}

// userBytes is the user data an acknowledged write carries: label and
// property names plus 8 bytes per value. A delete carries none.
func (o op) userBytes() int64 {
	switch o.k {
	case kSet:
		return int64(len("hits")) + 8
	case kCreate:
		return int64(len("T")+len("idx")+len("owner")) + 16
	}
	return 0
}

// Write statements answer one counter row: nodes, edges, set, deleted.
var (
	wantSet    = answer{rows: 1, sum: rowHash(0, 0, 1, 0)}
	wantCreate = answer{rows: 1, sum: rowHash(1, 0, 0, 0)}
	wantDelete = answer{rows: 1, sum: rowHash(0, 0, 0, 1)}
)

// sweepKeyOff is the key offset of traced sweep i, clear of every stream's
// key base.
func sweepKeyOff(i int) int64 { return int64(i) * 100 * keyStride }

// ledger is what one client has written: the state an audit must find.
type ledger struct {
	owner int
	hits  map[int]int64 // node -> last value set
	live  []int64       // T keys created and not yet deleted, oldest first
	dead  []int64       // T keys deleted
}

// shifted is the ledger of a replay of the same writes at a key offset.
func (l ledger) shifted(off int64) ledger {
	out := ledger{owner: l.owner, hits: l.hits}
	for _, k := range l.live {
		out.live = append(out.live, k+off)
	}
	for _, k := range l.dead {
		out.dead = append(out.dead, k+off)
	}
	return out
}

// opGen produces one client's operation stream from the seed. A client
// writes only nodes it owns (idx = client mod numClients) and T nodes it
// created, so it always knows the value a readback must return whatever
// the other client is doing.
type opGen struct {
	w       *workload
	o       *oracle
	rng     *rand.Rand
	zipf    *rand.Zipf
	hot     []int // start-node population; nil = every node
	owned   []int // the part of the population this client may set
	client  int
	total   int
	credit  []int // smooth weighted round-robin state, one per mix entry
	led     ledger
	setSeq  []int // nodes in first-set order, the readback population
	seq     int64
	keyBase int64
	// setOnce makes every set write a node the stream has not set yet. The
	// traced pass replays its stream in blocks, stage after stage: a node
	// set twice in a block would answer a readback between the two sets
	// with the second value in every stage but the first.
	setOnce bool
}

// newOpGen starts client's stream. Streams of one client that run against
// the same engine (warm-up, then window) take different stream numbers so
// that their T-node keys cannot collide.
func newOpGen(w *workload, o *oracle, seed int64, client, stream int) *opGen {
	g := &opGen{
		w: w, o: o, client: client,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(client+1000*stream))),
		led:     ledger{owner: client, hits: map[int]int64{}},
		keyBase: int64(1+client+numClients*stream) * keyStride,
	}
	for _, s := range w.mix {
		g.total += s.n
	}
	// Each client enters the kind schedule at its own seeded phase.
	g.credit = make([]int, len(w.mix))
	for skip := g.rng.Intn(g.total); skip > 0; skip-- {
		g.nextKind()
	}
	if w.hot > 0 {
		// The population comes from the seed alone, so both clients and
		// every run of a seed share it.
		perm := rand.New(rand.NewSource(seed)).Perm(o.nodes)
		hot := w.hot
		if hot > len(perm) {
			hot = len(perm)
		}
		g.hot = perm[:hot]
		for _, n := range g.hot {
			if n%numClients == client {
				g.owned = append(g.owned, n)
			}
		}
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(hot-1))
	}
	return g
}

func (g *opGen) startNode() int {
	if g.hot == nil {
		return g.rng.Intn(g.o.nodes)
	}
	return g.hot[g.zipf.Uint64()]
}

func (g *opGen) ownedNode() int {
	if len(g.owned) == 0 {
		// Tiny test graphs: fall back to any node of the right parity.
		return g.client
	}
	return g.owned[int(g.zipf.Uint64())%len(g.owned)]
}

func (g *opGen) wasSet(node int) bool {
	_, ok := g.led.hits[node]
	return ok
}

// nextKind schedules the mix by smooth weighted round-robin: every kind
// gets exactly its share, evenly interleaved. Drawing kinds at random
// instead would let the write share of a run — and with it every metric of
// rw_disk, where a write costs fifty reads — wander by a tenth from seed
// to seed.
func (g *opGen) nextKind() kind {
	best := 0
	for i, s := range g.w.mix {
		g.credit[i] += s.n
		if g.credit[i] > g.credit[best] {
			best = i
		}
	}
	g.credit[best] -= g.total
	return g.w.mix[best].k
}

// next returns the following operation and records its effect in the
// ledger at once: a write that is not acknowledged fails the run anyway.
func (g *opGen) next() op {
	k := g.nextKind()
	if k == kReadback && len(g.setSeq) == 0 {
		k = kSet
	}
	if k == kDelete && len(g.led.live) == 0 {
		k = kCreate
	}
	switch k {
	case kSet:
		g.seq++
		n := g.ownedNode()
		for g.setOnce && g.wasSet(n) && len(g.led.hits) < len(g.owned) {
			n = g.ownedNode()
		}
		if !g.wasSet(n) {
			g.setSeq = append(g.setSeq, n)
		}
		g.led.hits[n] = g.seq
		return op{k: kSet, node: n, val: g.seq, want: wantSet}
	case kReadback:
		n := g.setSeq[g.rng.Intn(len(g.setSeq))]
		return op{k: kReadback, node: n, val: g.led.hits[n], want: scalar(float64(g.led.hits[n]))}
	case kCreate:
		g.seq++
		key := g.keyBase + g.seq
		g.led.live = append(g.led.live, key)
		return op{k: kCreate, key: key, val: int64(g.client), want: wantCreate}
	case kDelete:
		key := g.led.live[0]
		g.led.live = g.led.live[1:]
		g.led.dead = append(g.led.dead, key)
		return op{k: kDelete, key: key, want: wantDelete}
	}
	n := g.startNode()
	return op{k: k, node: n, want: g.o.want(k, n)}
}

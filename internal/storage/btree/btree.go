// Package btree implements an on-disk B+tree over the pager: an ordered,
// persistent key/value map. It fills the role the survey assigns to backend
// key/value stores such as TokyoCabinet under VertexDB — a disk B-tree that a
// graph layer is built on — and also backs ordered secondary indexes.
//
// Leaves are chained for range scans. Deletion is by tombstone-free removal
// without rebalancing: leaves may underflow (a standard trade-off, as in
// append-mostly stores), and space freed by deletes is not reclaimed.
//
// Reads and writes work on the pooled page in place. Put and Delete splice
// their entry into the leaf's encoding, leaving the page exactly as
// writeNode would lay the node out; a node is decoded only when it must
// split, and a split hands its separator to the parent the same way. A
// descent bisects each internal node over its entries' offsets, and a
// splice bisects its node the same way. One validating walk derives a
// node's offsets, refusing a corrupt entry or a key out of order; the
// pager keeps them with the page's frame, and each splice shifts them by
// the bytes it moved, so they stay true of the page until it is rewritten
// whole (a split, through writeNode), read into a recycled frame, or
// written back by Flush, which releases them.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"gdbm/internal/storage/pager"
)

const (
	typeLeaf     = 1
	typeInternal = 2
)

// MaxEntry bounds len(key)+len(value) so that a node always holds at least
// two entries.
const MaxEntry = pager.PayloadSize/3 - 16

// Tree is a B+tree rooted in a page file. It is safe for concurrent use; all
// operations take the tree lock (single-writer, and readers are serialized
// with writers because the buffer pool is shared).
type Tree struct {
	mu     sync.Mutex
	pg     *pager.Pager
	header pager.PageID
	root   pager.PageID
	count  uint64
}

type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte       // leaf only, len == len(keys)
	children []pager.PageID // internal only, len == len(keys)+1
	next     pager.PageID   // leaf chain
}

// Create allocates a new empty tree in pg and returns it along with the
// header page that identifies it (persist the header id to reopen the tree).
func Create(pg *pager.Pager) (*Tree, pager.PageID, error) {
	header, err := pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	rootID, err := pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	t := &Tree{pg: pg, header: header, root: rootID}
	if err := t.writeNode(rootID, &node{leaf: true}); err != nil {
		return nil, 0, err
	}
	if err := t.writeHeader(); err != nil {
		return nil, 0, err
	}
	return t, header, nil
}

// Load reopens a tree previously created in pg with the given header page.
func Load(pg *pager.Pager, header pager.PageID) (*Tree, error) {
	t := &Tree{pg: pg, header: header}
	buf, err := pg.Read(header)
	if err != nil {
		return nil, err
	}
	t.root = pager.PageID(binary.BigEndian.Uint32(buf[0:4]))
	t.count = binary.BigEndian.Uint64(buf[4:12])
	if t.root == 0 {
		return nil, fmt.Errorf("btree: header page %d has no root", header)
	}
	return t, nil
}

func (t *Tree) writeHeader() error {
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(t.root))
	binary.BigEndian.PutUint64(buf[4:12], t.count)
	return t.pg.Write(t.header, buf[:])
}

// Len returns the number of stored keys.
func (t *Tree) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.count)
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var val []byte
	var found bool
	_, err := t.descend(key, func(c cursor) (err error) {
		if found, err = c.seek(key); found {
			val = append([]byte(nil), c.val...)
		}
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return val, found, nil
}

// maxDepth bounds a root-to-leaf path. Every internal node has at least two
// children and a file holds fewer than 2^32 pages, so a longer path is a
// cycle in a corrupt file.
const maxDepth = 33

// path is the route of a descent: the page ids from the root to the leaf,
// and at each internal node the index of the child taken.
type path struct {
	ids   [maxDepth]pager.PageID
	child [maxDepth]int
	n     int // ids[n-1] is the leaf
}

// descend views the nodes on the path from the root to the leaf that holds
// key (nil: the leftmost leaf), each once, runs leaf (when non-nil) on that
// leaf's cursor under the pager lock, and returns the path. The cursor is
// passed by value so that it stays on the stack.
func (t *Tree) descend(key []byte, leaf func(c cursor) error) (path, error) {
	var p path
	id := t.root
	for {
		if p.n == maxDepth {
			return p, fmt.Errorf("btree: page %d is deeper than %d levels", id, maxDepth)
		}
		p.ids[p.n] = id
		p.n++
		atLeaf := false
		err := t.pg.ViewIndexed(id, func(page []byte, offs *[]uint16) error {
			c, err := openCursor(id, page)
			if err != nil {
				return err
			}
			if !c.leaf {
				id, p.child[p.n-1], err = c.bisect(key, offs)
				return err
			}
			atLeaf = true
			if leaf == nil {
				return nil
			}
			return leaf(c)
		})
		if err != nil || atLeaf {
			return p, err
		}
	}
}

// update changes page id in place with splice, which reports whether its
// change fit and keeps the frame's entry offsets true, or returns the
// page's decoded node when it did not.
func (t *Tree) update(id pager.PageID, splice func(page []byte, offs *[]uint16) (bool, error)) (full *node, err error) {
	err = t.pg.UpdateIndexed(id, func(page []byte, offs *[]uint16) (bool, error) {
		fits, err := splice(page, offs)
		if fits || err != nil {
			return fits, err
		}
		full, err = decodeNode(id, page)
		return false, err
	})
	return full, err
}

// Put inserts or replaces the value for key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	if len(key)+len(val) > MaxEntry {
		return fmt.Errorf("btree: entry size %d exceeds max %d", len(key)+len(val), MaxEntry)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.descend(key, nil)
	if err != nil {
		return err
	}
	id, found := p.ids[p.n-1], false
	n, err := t.update(id, func(page []byte, offs *[]uint16) (fits bool, err error) {
		fits, found, err = putLeaf(id, page, offs, key, val)
		return fits, err
	})
	if err != nil {
		return err
	}
	if n != nil {
		i, _ := slices.BinarySearchFunc(n.keys, key, bytes.Compare)
		if found {
			n.vals[i] = val
		} else {
			n.keys, n.vals = slices.Insert(n.keys, i, key), slices.Insert(n.vals, i, val)
		}
		if err := t.splitUp(&p, n); err != nil {
			return err
		}
	}
	if !found {
		t.count++
	}
	if found && t.root == p.ids[0] {
		return nil // a replaced value leaves the header's count and root as they were
	}
	return t.writeHeader()
}

// splitUp writes n, the leaf of p with its new entry, which no longer fits
// its page, as two nodes, and hands the separator up the path: a parent
// with room takes it in place, a full one is decoded and split in turn,
// and a split root grows the tree by one level.
func (t *Tree) splitUp(p *path, n *node) error {
	for d := p.n - 1; ; d-- {
		sep, right, err := t.split(p.ids[d], n)
		if err != nil {
			return err
		}
		if d == 0 {
			newRoot, err := t.pg.Allocate()
			if err != nil {
				return err
			}
			err = t.writeNode(newRoot, &node{keys: [][]byte{sep}, children: []pager.PageID{p.ids[0], right}})
			if err == nil {
				t.root = newRoot
			}
			return err
		}
		id, ci := p.ids[d-1], p.child[d-1]
		n, err = t.update(id, func(page []byte, offs *[]uint16) (bool, error) {
			return putChild(id, page, offs, ci, sep, right)
		})
		if err != nil || n == nil {
			return err
		}
		n.keys, n.children = slices.Insert(n.keys, ci, sep), slices.Insert(n.children, ci+1, right)
	}
}

// split writes n, which overflows page id, as itself and a new right
// sibling, and returns the separator and the sibling.
func (t *Tree) split(id pager.PageID, n *node) ([]byte, pager.PageID, error) {
	rightID, err := t.pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	mid := len(n.keys) / 2
	sep, right := n.keys[mid], &node{leaf: n.leaf, next: n.next}
	if n.leaf {
		right.keys, right.vals = n.keys[mid:], n.vals[mid:]
		n.keys, n.vals, n.next = n.keys[:mid], n.vals[:mid], rightID
	} else {
		// The middle key moves up; it is not duplicated below.
		right.keys, right.children = n.keys[mid+1:], n.children[mid+1:]
		n.keys, n.children = n.keys[:mid], n.children[:mid+1]
	}
	if err := t.writeNode(rightID, right); err != nil {
		return nil, 0, err
	}
	return sep, rightID, t.writeNode(id, n)
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.descend(key, nil)
	if err != nil {
		return false, err
	}
	id, found := p.ids[p.n-1], false
	err = t.pg.UpdateIndexed(id, func(page []byte, offs *[]uint16) (changed bool, err error) {
		found, err = deleteLeaf(id, page, offs, key)
		return found, err
	})
	if err != nil || !found {
		return false, err
	}
	t.count--
	return true, t.writeHeader()
}

// AscendPrefix calls fn for each key with the given prefix in order.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	return t.ascend(prefix, prefix, fn)
}

// ascend calls fn for each key >= start in ascending order, stopping at the
// first key without prefix or when fn returns false. Each leaf's entries are
// copied out under the pager lock and handed to fn after it is released.
func (t *Tree) ascend(start, prefix []byte, fn func(key, val []byte) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var batch [][2][]byte // one leaf's emitted entries: key, value
	var next pager.PageID
	done := false
	collect := func(c cursor) error {
		batch = batch[:0]
		size := 0
		for {
			ok, err := c.next()
			if err != nil {
				return err
			}
			if !ok {
				next = c.link
				break
			}
			if start != nil && bytes.Compare(c.key, start) < 0 {
				continue
			}
			if !bytes.HasPrefix(c.key, prefix) {
				done = true
				break
			}
			batch = append(batch, [2][]byte{c.key, c.val})
			size += len(c.key) + len(c.val)
		}
		// The entries still point into the page. Copy them into one
		// fresh arena for this leaf, never reused, so fn may keep them;
		// each key's capacity ends at its length so appending to it
		// cannot overwrite its value.
		arena := make([]byte, 0, size)
		for i, e := range batch {
			k := len(arena)
			arena = append(append(arena, e[0]...), e[1]...)
			v := k + len(e[0])
			batch[i] = [2][]byte{arena[k:v:v], arena[v:len(arena):len(arena)]}
		}
		return nil
	}
	_, err := t.descend(start, collect)
	for err == nil {
		for _, e := range batch {
			if !fn(e[0], e[1]) {
				return nil
			}
		}
		if done || next == 0 {
			return nil
		}
		id := next
		err = t.pg.View(id, func(page []byte) error {
			c, err := openCursor(id, page)
			if err != nil {
				return err
			}
			if !c.leaf {
				return c.corrupt("leaf chain")
			}
			return collect(c)
		})
	}
	return err
}

// --- serialization ---

func uvarintLen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }

func (t *Tree) writeNode(id pager.PageID, n *node) error {
	buf := encodeNode(n)
	if len(buf) > pager.PayloadSize {
		return fmt.Errorf("btree: node %d overflows page (%d bytes)", id, len(buf))
	}
	return t.pg.Write(id, buf)
}

// encodeNode lays n out as its page holds it, without the zero tail.
func encodeNode(n *node) []byte {
	buf := make([]byte, nodeHeader, pager.PayloadSize)
	buf[0] = typeInternal
	link := pager.PageID(0)
	if n.leaf {
		buf[0], link = typeLeaf, n.next
	} else {
		link = n.children[0]
	}
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:7], uint32(link))
	for i, k := range n.keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		if n.leaf {
			buf = binary.AppendUvarint(buf, uint64(len(n.vals[i])))
			buf = append(buf, n.vals[i]...)
		} else {
			buf = binary.BigEndian.AppendUint32(buf, uint32(n.children[i+1]))
		}
	}
	return buf
}

// decodeNode copies the node encoded in page out of it.
func decodeNode(id pager.PageID, page []byte) (*node, error) {
	c, err := openCursor(id, page)
	if err != nil {
		return nil, err
	}
	n := &node{leaf: c.leaf}
	if c.leaf {
		n.next = c.link
	} else {
		n.children = []pager.PageID{c.link}
	}
	for {
		ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return n, nil
		}
		n.keys = append(n.keys, append([]byte(nil), c.key...))
		if c.leaf {
			n.vals = append(n.vals, append([]byte(nil), c.val...))
		} else {
			n.children = append(n.children, c.child)
		}
	}
}

// cursor walks an encoded node in place, bounds-checking every field
// against the page. Its slices alias the page, so they are valid only inside
// the pager.View call that supplied it.
type cursor struct {
	id    pager.PageID
	page  []byte
	pos   int
	leaf  bool
	left  int          // entries not yet read
	link  pager.PageID // leaf: the next leaf; internal: the leftmost child
	key   []byte       // the current entry's key
	val   []byte       // leaf: the current entry's value
	child pager.PageID // internal: the child right of key
}

// nodeHeader is the type byte, the entry count and the link.
const nodeHeader = 1 + 2 + 4

func openCursor(id pager.PageID, page []byte) (cursor, error) {
	if len(page) < nodeHeader {
		return cursor{}, fmt.Errorf("btree: short node page %d", id)
	}
	c := cursor{
		id:   id,
		page: page,
		pos:  nodeHeader,
		left: int(binary.BigEndian.Uint16(page[1:3])),
		link: pager.PageID(binary.BigEndian.Uint32(page[3:7])),
	}
	switch page[0] {
	case typeLeaf:
		c.leaf = true
	case typeInternal:
	default:
		return cursor{}, fmt.Errorf("btree: page %d has unknown node type %d", id, page[0])
	}
	return c, nil
}

// next moves to the following entry, reporting false after the last.
func (c *cursor) next() (bool, error) {
	if c.left == 0 {
		return false, nil
	}
	c.left--
	var err error
	if c.key, err = c.field(); err != nil {
		return false, err
	}
	if c.leaf {
		c.val, err = c.field()
		return err == nil, err
	}
	if len(c.page)-c.pos < 4 {
		return false, c.corrupt("child pointer")
	}
	c.child = pager.PageID(binary.BigEndian.Uint32(c.page[c.pos:]))
	c.pos += 4
	return true, nil
}

// field reads one varint-length-prefixed byte string.
func (c *cursor) field() ([]byte, error) {
	n, w := binary.Uvarint(c.page[c.pos:])
	if w <= 0 {
		return nil, c.corrupt("varint")
	}
	c.pos += w
	if n > uint64(len(c.page)-c.pos) {
		return nil, c.corrupt("length")
	}
	end := c.pos + int(n)
	b := c.page[c.pos:end:end]
	c.pos = end
	return b, nil
}

func (c *cursor) corrupt(what string) error {
	return fmt.Errorf("btree: corrupt %s in page %d", what, c.id)
}

// bisect returns the child of an internal node that holds key and its
// index, the one childIndex picks on the decoded node, by binary search for
// the first entry whose key is > key. offs is the node's entry offsets as
// index fills them, kept with the page's frame; when it is empty, bisect
// fills it first. A nil key selects the leftmost child.
func (c *cursor) bisect(key []byte, offs *[]uint16) (pager.PageID, int, error) {
	if key == nil {
		return c.link, 0, nil
	}
	if len(*offs) == 0 {
		if err := c.index(offs); err != nil {
			return 0, 0, err
		}
	}
	lo, _, err := c.search(*offs, key, true)
	if err != nil {
		return 0, 0, err
	}
	if lo == 0 {
		return c.link, 0, nil
	}
	if err := c.entryAt((*offs)[lo-1]); err != nil {
		return 0, 0, err
	}
	return c.child, lo, nil
}

// search bisects the entries at offs for the first whose key is >= key, or
// > key when after is set, and reports whether a probed key was key. The
// keys ascend strictly, so with after unset that is the entry found.
func (c *cursor) search(offs []uint16, key []byte, after bool) (i int, eq bool, err error) {
	lo, hi := 0, len(offs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if err := c.entryAt(offs[m]); err != nil {
			return 0, false, err
		}
		cmp := bytes.Compare(c.key, key)
		eq = eq || cmp == 0
		if cmp > 0 || (cmp == 0 && !after) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo, eq, nil
}

// index walks every entry of the node, so that a corrupt one, or a key not
// above the one before it, is an error, and sets *offs to their offsets in
// the page, in order. On error *offs is left empty.
func (c *cursor) index(offs *[]uint16) error {
	o := (*offs)[:0]
	var prev []byte
	for {
		start := c.pos
		ok, err := c.next()
		switch {
		case err != nil:
		case start > math.MaxUint16:
			err = c.corrupt("entry offset")
		case ok && len(o) > 0 && bytes.Compare(prev, c.key) >= 0:
			err = c.corrupt("key order")
		}
		if err != nil {
			*offs = o[:0]
			return err
		}
		if !ok {
			*offs = o
			return nil
		}
		o = append(o, uint16(start))
		prev = c.key
	}
}

// entryAt reads the node's entry at offset off into c.key and c.val or
// c.child, bounds-checking it against the page as next does.
func (c *cursor) entryAt(off uint16) error {
	if int(off) >= len(c.page) {
		return c.corrupt("entry offset")
	}
	c.pos, c.left = int(off), 1
	_, err := c.next()
	return err
}

// seek moves a leaf cursor to the first entry >= key and reports whether
// that entry's key is key.
func (c *cursor) seek(key []byte) (bool, error) {
	for {
		ok, err := c.next()
		if err != nil || !ok {
			return false, err
		}
		if cmp := bytes.Compare(c.key, key); cmp >= 0 {
			return cmp == 0, nil
		}
	}
}

// span is where a write splices an encoded node: it replaces the bytes
// [at, cut) of entry i, and the node's entries end at end.
type span struct{ i, at, cut, end int }

// target opens the node encoded in page, which must be a leaf or not as
// leaf says, and returns the span of the entry a write targets: in a leaf
// the first entry whose key is >= key, cut past it when that key is key
// (found); in an internal node entry i. at == cut == end when the target
// lies past the last entry. offs is the node's entry offsets, kept with the
// page's frame. When it is empty, target derives it with index, whose walk
// of every entry makes a corrupt entry anywhere an error before a splice
// changes a byte; the offsets are only ever kept true of the bytes that
// walk checked, so the target is found by bisecting them.
func target(id pager.PageID, page []byte, offs *[]uint16, leaf bool, key []byte, i int) (s span, found bool, err error) {
	c, err := openCursor(id, page)
	if err == nil && c.leaf != leaf {
		err = c.corrupt("node type")
	}
	if err == nil && len(*offs) == 0 {
		err = c.index(offs)
	}
	if err != nil {
		return span{}, false, err
	}
	o := *offs
	s.end = nodeHeader
	if len(o) > 0 {
		if err := c.entryAt(o[len(o)-1]); err != nil {
			return span{}, false, err
		}
		s.end = c.pos
	}
	if leaf {
		if i, found, err = c.search(o, key, false); err != nil {
			return span{}, false, err
		}
	}
	// Entry j starts at its offset; past the last entry is the end.
	start := func(j int) int {
		if j < len(o) {
			return int(o[j])
		}
		return s.end
	}
	s.i = min(i, len(o))
	s.at, s.cut = start(s.i), start(s.i)
	if found {
		s.cut = start(s.i + 1)
	}
	return s, found, nil
}

// resize makes the span size bytes long, moving the entries after it and
// zeroing the bytes the move frees, so the page keeps writeNode's zero tail.
// It keeps offs, the node's entry offsets, true of the resized page: entry
// i's offset is inserted when the span was empty and removed when size is
// 0, and every later entry's moves by the change in size. It reports false,
// leaving page and offs unchanged, when the node would overflow.
func (s span) resize(page []byte, offs *[]uint16, size int) bool {
	old := s.cut - s.at
	end := s.end + size - old
	if end > len(page) {
		return false
	}
	copy(page[s.at+size:end], page[s.cut:s.end])
	clear(page[min(end, s.end):s.end])
	o, later := *offs, s.i
	switch {
	case old == 0:
		o, later = slices.Insert(o, s.i, uint16(s.at)), s.i+1
	case size == 0:
		o = slices.Delete(o, s.i, s.i+1)
	default:
		later = s.i + 1
	}
	for j := later; j < len(o); j++ {
		o[j] = uint16(int(o[j]) + size - old)
	}
	*offs = o
	return true
}

// addCount adds delta to the entry count of the node encoded in page.
func addCount(page []byte, delta int) {
	binary.BigEndian.PutUint16(page[1:3], uint16(int(binary.BigEndian.Uint16(page[1:3]))+delta))
}

// putLeaf writes key's entry into the leaf encoded in page in place,
// replacing its value or inserting it in order, with the bytes writeNode
// would produce for the changed node, and keeps offs, the leaf's entry
// offsets, true of the changed page. It reports whether the entry fit and
// whether key was in the leaf already. When it errors or the entry does not
// fit, page is unchanged, and offs is as it was or derived from page.
func putLeaf(id pager.PageID, page []byte, offs *[]uint16, key, val []byte) (fits, found bool, err error) {
	s, found, err := target(id, page, offs, true, key, 0)
	kl, vl := uvarintLen(uint64(len(key))), uvarintLen(uint64(len(val)))
	if err != nil || !s.resize(page, offs, kl+len(key)+vl+len(val)) {
		return false, found, err
	}
	at := s.at + binary.PutUvarint(page[s.at:], uint64(len(key)))
	at += copy(page[at:], key)
	at += binary.PutUvarint(page[at:], uint64(len(val)))
	copy(page[at:], val)
	if !found {
		addCount(page, 1)
	}
	return true, found, nil
}

// deleteLeaf removes key's entry from the leaf encoded in page in place,
// keeping offs true as putLeaf does, and reports whether it was there. When
// it errors or key is absent, page is unchanged.
func deleteLeaf(id pager.PageID, page []byte, offs *[]uint16, key []byte) (bool, error) {
	s, found, err := target(id, page, offs, true, key, 0)
	if err != nil || !found {
		return false, err
	}
	s.resize(page, offs, 0)
	addCount(page, -1)
	return true, nil
}

// putChild inserts separator sep and, right of it, child right as entry i
// of the internal node encoded in page, in place, keeping offs true as
// putLeaf does. It reports whether they fit; when it errors or they do not,
// page is unchanged.
func putChild(id pager.PageID, page []byte, offs *[]uint16, i int, sep []byte, right pager.PageID) (bool, error) {
	s, _, err := target(id, page, offs, false, nil, i)
	if err != nil || !s.resize(page, offs, uvarintLen(uint64(len(sep)))+len(sep)+4) {
		return false, err
	}
	at := s.at + binary.PutUvarint(page[s.at:], uint64(len(sep)))
	at += copy(page[at:], sep)
	binary.BigEndian.PutUint32(page[at:], uint32(right))
	addCount(page, 1)
	return true, nil
}

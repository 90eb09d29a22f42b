// Package btree implements an on-disk B+tree over the pager: an ordered,
// persistent key/value map. It fills the role the survey assigns to backend
// key/value stores such as TokyoCabinet under VertexDB — a disk B-tree that a
// graph layer is built on — and also backs ordered secondary indexes.
//
// Leaves are chained for range scans. Deletion is by tombstone-free removal
// without rebalancing: leaves may underflow (a standard trade-off, as in
// append-mostly stores); space from emptied subtrees is reclaimed when the
// tree is rebuilt through Compact.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[0:4], uint32(t.root))
	binary.BigEndian.PutUint64(buf[4:12], t.count)
	return t.pg.Write(t.header, buf)
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
	err := t.descend(key, func(c cursor) error {
		var err error
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

// descend views the nodes on the path from the root to the leaf that holds
// key (nil: the leftmost leaf), each once, and runs leaf on that leaf's
// cursor under the pager lock. The cursor is passed by value so that it
// stays on the stack.
func (t *Tree) descend(key []byte, leaf func(c cursor) error) error {
	id := t.root
	for {
		atLeaf := false
		err := t.pg.View(id, func(page []byte) error {
			c, err := openCursor(id, page)
			if err != nil {
				return err
			}
			if c.leaf {
				atLeaf = true
				return leaf(c)
			}
			id, err = c.childFor(key)
			return err
		})
		if err != nil || atLeaf {
			return err
		}
	}
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
	promoted, right, added, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if right != 0 {
		// Root split: grow the tree by one level.
		newRoot, err := t.pg.Allocate()
		if err != nil {
			return err
		}
		rn := &node{
			keys:     [][]byte{promoted},
			children: []pager.PageID{t.root, right},
		}
		if err := t.writeNode(newRoot, rn); err != nil {
			return err
		}
		t.root = newRoot
	}
	if added {
		t.count++
	}
	return t.writeHeader()
}

// insert descends to the leaf, inserts, and splits on overflow. It returns
// the separator key and new right sibling if this node split, and whether a
// new key was added (false for replacement).
func (t *Tree) insert(id pager.PageID, key, val []byte) (promoted []byte, right pager.PageID, added bool, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, 0, false, err
	}
	if n.leaf {
		i, found := search(n.keys, key)
		if found {
			n.vals[i] = append([]byte(nil), val...)
		} else {
			n.keys = insertAt(n.keys, i, append([]byte(nil), key...))
			n.vals = insertAt(n.vals, i, append([]byte(nil), val...))
			added = true
		}
		promoted, right, err = t.splitIfNeeded(id, n)
		return promoted, right, added, err
	}
	ci := childIndex(n.keys, key)
	p, r, added, err := t.insert(n.children[ci], key, val)
	if err != nil {
		return nil, 0, false, err
	}
	if r != 0 {
		n.keys = insertAt(n.keys, ci, p)
		n.children = insertAt(n.children, ci+1, r)
		promoted, right, err = t.splitIfNeeded(id, n)
		return promoted, right, added, err
	}
	return nil, 0, added, nil
}

// splitIfNeeded persists n at id, splitting it first when it no longer fits
// in a page.
func (t *Tree) splitIfNeeded(id pager.PageID, n *node) ([]byte, pager.PageID, error) {
	if t.encodedSize(n) <= pager.PayloadSize {
		return nil, 0, t.writeNode(id, n)
	}
	mid := len(n.keys) / 2
	rightID, err := t.pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	var sep []byte
	var rightNode *node
	if n.leaf {
		sep = append([]byte(nil), n.keys[mid]...)
		rightNode = &node{
			leaf: true,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]byte(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rightID
	} else {
		// The middle key moves up; it is not duplicated below.
		sep = append([]byte(nil), n.keys[mid]...)
		rightNode = &node{
			keys:     append([][]byte(nil), n.keys[mid+1:]...),
			children: append([]pager.PageID(nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	if err := t.writeNode(rightID, rightNode); err != nil {
		return nil, 0, err
	}
	if err := t.writeNode(id, n); err != nil {
		return nil, 0, err
	}
	return sep, rightID, nil
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return false, err
		}
		if n.leaf {
			i, found := search(n.keys, key)
			if !found {
				return false, nil
			}
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			if err := t.writeNode(id, n); err != nil {
				return false, err
			}
			t.count--
			return true, t.writeHeader()
		}
		id = n.children[childIndex(n.keys, key)]
	}
}

// Ascend calls fn for each key >= start in ascending order until fn returns
// false. A nil start begins at the smallest key.
func (t *Tree) Ascend(start []byte, fn func(key, val []byte) bool) error {
	return t.ascend(start, nil, fn)
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
		for {
			ok, err := c.next()
			if err != nil || !ok {
				next = c.link
				return err
			}
			if start != nil && bytes.Compare(c.key, start) < 0 {
				continue
			}
			if !bytes.HasPrefix(c.key, prefix) {
				done = true
				return nil
			}
			// One allocation holds both; the key's capacity ends at its
			// length so appending to it cannot overwrite the value.
			e := make([]byte, len(c.key)+len(c.val))
			kl := copy(e, c.key)
			copy(e[kl:], c.val)
			batch = append(batch, [2][]byte{e[:kl:kl], e[kl:]})
		}
	}
	err := t.descend(start, collect)
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

// Compact rewrites the tree's live entries into a fresh tree in the same
// pager and returns it with its new header page. The old pages are freed.
func (t *Tree) Compact() (*Tree, pager.PageID, error) {
	type kv struct{ k, v []byte }
	var all []kv
	if err := t.Ascend(nil, func(k, v []byte) bool {
		all = append(all, kv{k, v})
		return true
	}); err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	oldPages := t.collectPages(t.root)
	oldHeader := t.header
	t.mu.Unlock()
	nt, header, err := Create(t.pg)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range all {
		if err := nt.Put(e.k, e.v); err != nil {
			return nil, 0, err
		}
	}
	for _, p := range oldPages {
		if err := t.pg.Free(p); err != nil {
			return nil, 0, err
		}
	}
	if err := t.pg.Free(oldHeader); err != nil {
		return nil, 0, err
	}
	return nt, header, nil
}

func (t *Tree) collectPages(id pager.PageID) []pager.PageID {
	n, err := t.readNode(id)
	if err != nil {
		return nil
	}
	out := []pager.PageID{id}
	if !n.leaf {
		for _, c := range n.children {
			out = append(out, t.collectPages(c)...)
		}
	}
	return out
}

// search finds the position of key in keys, reporting exact match.
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndex picks the child subtree for key in an internal node. A nil key
// selects the leftmost child.
func childIndex(keys [][]byte, key []byte) int {
	if key == nil {
		return 0
	}
	i, found := search(keys, key)
	if found {
		return i + 1
	}
	return i
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// --- serialization ---

func (t *Tree) encodedSize(n *node) int {
	size := 1 + 2 // type + nkeys
	if n.leaf {
		size += 4 // next pointer
		for i := range n.keys {
			size += uvarintLen(uint64(len(n.keys[i]))) + len(n.keys[i])
			size += uvarintLen(uint64(len(n.vals[i]))) + len(n.vals[i])
		}
	} else {
		size += 4 // child0
		for i := range n.keys {
			size += uvarintLen(uint64(len(n.keys[i]))) + len(n.keys[i]) + 4
		}
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (t *Tree) writeNode(id pager.PageID, n *node) error {
	buf := make([]byte, 0, pager.PayloadSize)
	if n.leaf {
		buf = append(buf, typeLeaf)
	} else {
		buf = append(buf, typeInternal)
	}
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(n.keys)))
	buf = append(buf, u16[:]...)
	var u32 [4]byte
	if n.leaf {
		binary.BigEndian.PutUint32(u32[:], uint32(n.next))
		buf = append(buf, u32[:]...)
		for i := range n.keys {
			buf = binary.AppendUvarint(buf, uint64(len(n.keys[i])))
			buf = append(buf, n.keys[i]...)
			buf = binary.AppendUvarint(buf, uint64(len(n.vals[i])))
			buf = append(buf, n.vals[i]...)
		}
	} else {
		binary.BigEndian.PutUint32(u32[:], uint32(n.children[0]))
		buf = append(buf, u32[:]...)
		for i := range n.keys {
			buf = binary.AppendUvarint(buf, uint64(len(n.keys[i])))
			buf = append(buf, n.keys[i]...)
			binary.BigEndian.PutUint32(u32[:], uint32(n.children[i+1]))
			buf = append(buf, u32[:]...)
		}
	}
	if len(buf) > pager.PayloadSize {
		return fmt.Errorf("btree: node %d overflows page (%d bytes)", id, len(buf))
	}
	return t.pg.Write(id, buf)
}

// readNode decodes node id for the write path, which rewrites it. Decoding
// copies every entry, so it reads the pooled page in place.
func (t *Tree) readNode(id pager.PageID) (*node, error) {
	var n *node
	err := t.pg.View(id, func(page []byte) error {
		var err error
		n, err = decodeNode(id, page)
		return err
	})
	return n, err
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

// childFor returns the child of an internal node that holds key, the one
// childIndex picks on the decoded node. A nil key selects the leftmost.
func (c *cursor) childFor(key []byte) (pager.PageID, error) {
	child := c.link
	if key == nil {
		return child, nil
	}
	for {
		ok, err := c.next()
		if err != nil || !ok || bytes.Compare(c.key, key) > 0 {
			return child, err
		}
		child = c.child
	}
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

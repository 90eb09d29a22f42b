// Package pager implements a slotted page file with a CLOCK buffer pool. It is
// the "external memory" storage layer of Table I: engines that advertise
// external-memory support keep their primary data in page files managed here.
//
// The file is an array of fixed-size pages. Page 0 is reserved for the
// pager's own metadata (page count and free list head). Every page carries a
// CRC32 checksum validated on read, so torn or corrupted pages surface as
// errors instead of silent damage.
//
// The buffer pool is a fixed-budget page cache with CLOCK (second-chance)
// replacement: Options.CacheBytes bounds it in bytes (Options.PoolPages in
// pages, for callers that think in frames). Victim selection is the
// cache.Ring policy; write-back of dirty victims and their retention across
// failed syncs stay here, under the pager's lock. A frame owns its whole
// page image, CRC header included, and a miss reads into a recycled frame,
// so a page read or write-back allocates nothing. A frame also keeps an
// index a reader derived from its bytes (ViewIndexed), dropped whenever
// those bytes change unless the writer kept it true (UpdateIndexed), and
// released when Flush writes the frame back.
//
// Durability contract: Flush returns nil only after every buffered write has
// been written AND fsynced. Dirty bits are cleared only once the sync
// succeeds, and dirty pages evicted between syncs are retained in a side
// ledger, so a Flush retried after a failed sync rewrites everything the
// kernel may have dropped (the post-fsyncgate contract). All file access
// goes through vfs.File so crash tests can inject failures.
package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"gdbm/internal/cache"
	"gdbm/internal/obs"
	"gdbm/internal/storage/vfs"
)

// PageSize is the on-disk page size in bytes.
const PageSize = 4096

// headerSize is the per-page overhead: a CRC32 over the payload.
const headerSize = 4

// PayloadSize is the number of usable bytes per page.
const PayloadSize = PageSize - headerSize

// PageID identifies a page within a file. Page 0 is the pager's metadata.
type PageID uint32

// ErrChecksum reports a page whose stored CRC does not match its contents.
var ErrChecksum = fmt.Errorf("pager: page checksum mismatch")

// frame is one pool slot. It owns a whole on-disk page image: the CRC
// header, stamped on write-back, followed by the payload.
type frame struct {
	id    PageID
	page  []byte // PageSize bytes
	dirty bool
	// index holds offsets into the payload that a ViewIndexed reader
	// derived from it, or that an UpdateIndexed writer kept true through
	// its change. It is emptied, keeping its capacity, whenever the frame's
	// bytes change in any other way, so it never outlives the image it
	// came from, and released when Flush writes the frame back.
	index []uint16
}

// payload returns the frame's payload, the page image after its header.
func (fr *frame) payload() []byte { return fr.page[headerSize:] }

// Pager manages a page file with a fixed-capacity write-back buffer pool.
type Pager struct {
	mu       sync.Mutex
	f        vfs.File
	capacity int
	frames   map[PageID]*frame
	policy   *cache.Ring[PageID] // CLOCK victim selection over frames
	// spare is the frame the next miss fills: the last victim evicted, or
	// nil until the pool first evicts. A miss reads and verifies its page
	// in the spare before anything is evicted, so a failed read leaves the
	// pool as it was, and no victim's write-back shares its buffer.
	spare    *frame
	meta     []byte // PageSize bytes: page 0's image
	pages    uint32 // total pages in file, including page 0
	freeHead PageID // head of the free page list, 0 if none
	closed   bool

	// pendingEvict holds page images of dirty frames evicted since the
	// last successful sync. They were written to the file, but until a sync
	// succeeds the kernel may drop them; a retried Flush must be able to
	// rewrite them even though the frames left the pool.
	pendingEvict map[PageID][]byte
	// syncFailed records that the last sync attempt failed (sticky until
	// a sync succeeds); Flush keeps rewriting everything unsynced.
	syncFailed bool

	// Stats for the buffer-pool ablation benchmark.
	hits      uint64
	misses    uint64
	evictions uint64

	// Instance-wide observability counters (nil-safe no-ops when the
	// pager was opened without a registry).
	mReads, mWrites, mSyncs, mSyncFailures *obs.Counter
}

// Options configures Open.
type Options struct {
	// PoolPages is the buffer pool capacity in pages. Zero means 256.
	PoolPages int
	// CacheBytes is the buffer pool budget in bytes; when positive it
	// overrides PoolPages with CacheBytes/PageSize frames (minimum 1).
	CacheBytes int64
	// FS is the filesystem to open the page file on. Nil means the real
	// filesystem.
	FS vfs.FS
	// Metrics, when non-nil, receives the pager's I/O counters:
	// pager.page_reads, pager.page_writes, pager.syncs,
	// pager.sync_failures.
	Metrics *obs.Registry
}

// Open opens or creates a page file.
func Open(path string, opts Options) (*Pager, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 256
	}
	if opts.CacheBytes > 0 {
		opts.PoolPages = int(opts.CacheBytes / PageSize)
		if opts.PoolPages < 1 {
			opts.PoolPages = 1
		}
	}
	if opts.FS == nil {
		opts.FS = vfs.OS()
	}
	f, err := opts.FS.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	p := &Pager{
		f:            f,
		capacity:     opts.PoolPages,
		frames:       make(map[PageID]*frame, opts.PoolPages),
		policy:       cache.NewRing[PageID](),
		meta:         make([]byte, PageSize),
		pendingEvict: map[PageID][]byte{},
		// A nil registry yields nil counters, whose methods no-op.
		mReads:        opts.Metrics.Counter("pager.page_reads"),
		mWrites:       opts.Metrics.Counter("pager.page_writes"),
		mSyncs:        opts.Metrics.Counter("pager.syncs"),
		mSyncFailures: opts.Metrics.Counter("pager.sync_failures"),
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: size: %w", err)
	}
	if size == 0 {
		// Fresh file: create the metadata page.
		p.pages = 1
		if err := p.writeMeta(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		if size%PageSize != 0 {
			f.Close()
			return nil, fmt.Errorf("pager: %s has size %d, not a multiple of %d", path, size, PageSize)
		}
		p.pages = uint32(size / PageSize)
		if err := p.readMeta(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *Pager) writeMeta() error {
	binary.BigEndian.PutUint32(p.meta[headerSize:], p.pages)
	binary.BigEndian.PutUint32(p.meta[headerSize+4:], uint32(p.freeHead))
	return p.writePage(0, p.meta)
}

func (p *Pager) readMeta() error {
	if err := p.readPage(0, p.meta); err != nil {
		return err
	}
	p.pages = binary.BigEndian.Uint32(p.meta[headerSize:])
	p.freeHead = PageID(binary.BigEndian.Uint32(p.meta[headerSize+4:]))
	return nil
}

// writePage stamps the CRC of page's payload into its header and writes the
// whole image as page id.
func (p *Pager) writePage(id PageID, page []byte) error {
	binary.BigEndian.PutUint32(page[:headerSize], crc32.ChecksumIEEE(page[headerSize:]))
	if _, err := p.f.WriteAt(page, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	p.mWrites.Inc()
	return nil
}

// readPage reads the image of page id into page and verifies its CRC.
func (p *Pager) readPage(id PageID, page []byte) error {
	if _, err := p.f.ReadAt(page, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	p.mReads.Inc()
	want := binary.BigEndian.Uint32(page[:headerSize])
	if crc32.ChecksumIEEE(page[headerSize:]) != want {
		return fmt.Errorf("page %d: %w", id, ErrChecksum)
	}
	return nil
}

// Allocate returns a fresh page, reusing a freed page if available. The page
// contents start zeroed.
func (p *Pager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, fmt.Errorf("pager: allocate: file closed")
	}
	if p.freeHead != 0 {
		id := p.freeHead
		fr, err := p.loadLocked(id)
		if err != nil {
			return 0, err
		}
		p.freeHead = PageID(binary.BigEndian.Uint32(fr.payload()))
		if err := p.storeLocked(id, nil); err != nil {
			return 0, err
		}
		return id, p.writeMeta()
	}
	id := PageID(p.pages)
	p.pages++
	if err := p.storeLocked(id, nil); err != nil {
		return 0, err
	}
	return id, p.writeMeta()
}

// Free returns a page to the free list.
func (p *Pager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == 0 || uint32(id) >= p.pages {
		return fmt.Errorf("pager: free invalid page %d", id)
	}
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(p.freeHead))
	if err := p.storeLocked(id, buf[:]); err != nil {
		return err
	}
	p.freeHead = id
	return p.writeMeta()
}

// View runs fn on the pooled payload of page id, loading the page into the
// pool on a miss, which verifies its CRC. fn runs under the pager lock: it
// must not keep the slice, write to it, or call back into the pager. View
// returns fn's error.
func (p *Pager) View(id PageID, fn func(payload []byte) error) error {
	return p.ViewIndexed(id, func(payload []byte, _ *[]uint16) error { return fn(payload) })
}

// ViewIndexed is View that also hands fn the frame's index: offsets into the
// payload that a reader derived from it on an earlier visit, or an empty
// slice. fn may fill the index from the payload it is handed; the pager
// empties it whenever it changes the frame's bytes (a miss reads into the
// frame, a Write), and an UpdateIndexed writer that changes them keeps it
// true or empties it, so an index is only ever seen beside the bytes it describes,
// and it releases it when Flush writes the frame back, so only frames
// changed since the last Flush, or read since, keep one. A reader must
// still bounds-check what it reads through an offset.
func (p *Pager) ViewIndexed(id PageID, fn func(payload []byte, index *[]uint16) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("pager: read: file closed")
	}
	fr, err := p.loadLocked(id)
	if err != nil {
		return err
	}
	return fn(fr.payload(), &fr.index)
}

// UpdateIndexed is ViewIndexed for a writer: fn may change the pooled
// payload of page id in place, and reports whether it did. A changed page
// is marked dirty and referenced under the pager lock, exactly as a Write
// of the changed bytes leaves it, so eviction, the pending-evict ledger and
// Flush treat the two alike. Like Write, UpdateIndexed counts no pool hit;
// a miss loads the page as View does. fn must leave the payload unchanged
// when it returns false or an error, must not keep the slice, and must not
// call back into the pager. UpdateIndexed returns fn's error.
//
// The index is left as fn leaves it: a writer that knows how its change
// moves the offsets keeps them instead of deriving them again. A fn that
// changes the page must leave the index either empty or true of the
// changed bytes; one that does not must leave it as it was or fill it from
// the unchanged payload, as a reader may.
func (p *Pager) UpdateIndexed(id PageID, fn func(payload []byte, index *[]uint16) (bool, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("pager: write: file closed")
	}
	fr, ok := p.frames[id]
	if !ok {
		var err error
		if fr, err = p.loadLocked(id); err != nil {
			return err
		}
	}
	changed, err := fn(fr.payload(), &fr.index)
	if err != nil || !changed {
		return err
	}
	fr.dirty = true
	p.policy.Note(id)
	return nil
}

// Read returns a copy of the page payload.
func (p *Pager) Read(id PageID) ([]byte, error) {
	out := make([]byte, PayloadSize)
	if err := p.View(id, func(data []byte) error {
		copy(out, data)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Write replaces the page payload. Shorter payloads are zero-padded.
func (p *Pager) Write(id PageID, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("pager: write: file closed")
	}
	if len(payload) > PayloadSize {
		return fmt.Errorf("pager: payload %d exceeds %d", len(payload), PayloadSize)
	}
	if uint32(id) >= p.pages {
		return fmt.Errorf("pager: write to unallocated page %d", id)
	}
	return p.storeLocked(id, payload)
}

// loadLocked fetches a page through the pool. A miss reads the page into
// the spare frame and verifies it there before insertFrame evicts anything.
func (p *Pager) loadLocked(id PageID) (*frame, error) {
	if fr, ok := p.frames[id]; ok {
		p.hits++
		p.policy.Note(id)
		return fr, nil
	}
	p.misses++
	fr := p.spareFrame()
	if err := p.readPage(id, fr.page); err != nil {
		return nil, err
	}
	fr.id, fr.dirty = id, false
	if err := p.insertFrame(fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// storeLocked writes a page through the pool (write-back), zero-padding a
// payload shorter than PayloadSize.
func (p *Pager) storeLocked(id PageID, payload []byte) error {
	fr, resident := p.frames[id]
	if !resident {
		fr = p.spareFrame()
		fr.id = id
	}
	data := fr.payload()
	clear(data[copy(data, payload):])
	fr.dirty, fr.index = true, fr.index[:0]
	if resident {
		p.policy.Note(id)
		return nil
	}
	return p.insertFrame(fr)
}

// spareFrame returns the spare frame, making one while the pool has not yet
// evicted, with its index emptied: the caller is about to replace its
// bytes. It stays the spare until insertFrame puts it in the pool.
func (p *Pager) spareFrame() *frame {
	if p.spare == nil {
		p.spare = &frame{page: make([]byte, PageSize)}
	}
	p.spare.index = p.spare.index[:0]
	return p.spare
}

// insertFrame puts the spare frame fr in the pool, first evicting the CLOCK
// victim if the pool is full; the victim becomes the next spare. If the
// victim's write-back fails, the pool is left as it was and fr stays spare.
func (p *Pager) insertFrame(fr *frame) error {
	var spare *frame
	for len(p.frames) >= p.capacity {
		vid, ok := p.policy.Victim()
		if !ok {
			break
		}
		victim := p.frames[vid]
		if victim.dirty {
			if err := p.writePage(victim.id, victim.page); err != nil {
				// Keep the victim in the pool; re-track it so the policy
				// and frame map stay consistent for a retry.
				p.policy.Note(vid)
				return err
			}
			// The write is in the OS cache but not yet synced; keep the
			// image so a Flush retried after a failed sync can rewrite
			// it (the frame is leaving the pool). A page evicted again
			// before the next Flush overwrites its older image in place.
			if img, ok := p.pendingEvict[victim.id]; ok {
				copy(img, victim.page)
			} else {
				p.pendingEvict[victim.id] = append([]byte(nil), victim.page...)
			}
		}
		delete(p.frames, victim.id)
		p.evictions++
		spare = victim
	}
	p.frames[fr.id] = fr
	p.policy.Note(fr.id)
	p.spare = spare
	return nil
}

// Flush writes all dirty frames and syncs the file. It returns nil only
// once everything buffered is durable; after a failure it can be retried
// and rewrites whatever the failed sync may have lost.
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pager) flushLocked() error {
	if p.closed {
		return nil
	}
	if err := p.writeMeta(); err != nil {
		return err
	}
	// Rewrite evicted-but-unsynced pages first (stale copies), then dirty
	// frames in page order (newer copies win, and the write order is
	// deterministic for crash-schedule enumeration).
	evicted := make([]PageID, 0, len(p.pendingEvict))
	for id := range p.pendingEvict {
		evicted = append(evicted, id)
	}
	sort.Slice(evicted, func(i, j int) bool { return evicted[i] < evicted[j] })
	for _, id := range evicted {
		if err := p.writePage(id, p.pendingEvict[id]); err != nil {
			return err
		}
	}
	var written []*frame
	ids := make([]PageID, 0, len(p.frames))
	for id := range p.frames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fr := p.frames[id]
		if fr.dirty {
			if err := p.writePage(fr.id, fr.page); err != nil {
				return err
			}
			written = append(written, fr)
			// Release the index, capacity too: under a pool that holds
			// the whole file every written page would otherwise keep its
			// offsets for good. The next visit derives them again.
			fr.index = nil
		}
	}
	if err := p.f.Sync(); err != nil {
		// Sticky: nothing is marked clean, so the next Flush rewrites
		// every unsynced page and syncs again.
		p.syncFailed = true
		p.mSyncFailures.Inc()
		return fmt.Errorf("pager: sync: %w", err)
	}
	p.syncFailed = false
	p.mSyncs.Inc()
	for _, fr := range written {
		fr.dirty = false
	}
	clear(p.pendingEvict)
	return nil
}

// Pages returns the number of allocated pages, including the meta page.
func (p *Pager) Pages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.pages)
}

// Stats returns buffer pool hit/miss counters.
func (p *Pager) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// CacheStats returns the buffer pool counters as a cache layer snapshot.
func (p *Pager) CacheStats() cache.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return cache.Stats{
		Hits:        p.hits,
		Misses:      p.misses,
		Evictions:   p.evictions,
		Entries:     len(p.frames),
		UsedBytes:   int64(len(p.frames)) * PageSize,
		BudgetBytes: int64(p.capacity) * PageSize,
	}
}

// SyncFailed reports whether the most recent sync attempt failed (and the
// pager is holding unsynced state for a retry).
func (p *Pager) SyncFailed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncFailed
}

// Close flushes and closes the underlying file.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if err := p.flushLocked(); err != nil {
		p.f.Close()
		p.closed = true
		return err
	}
	p.closed = true
	return p.f.Close()
}

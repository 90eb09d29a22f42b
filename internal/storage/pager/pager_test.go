package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gdbm/internal/obs"
)

func tempPager(t *testing.T, pool int) (*Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.pg")
	p, err := Open(path, Options{PoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, path
}

func TestAllocateWriteRead(t *testing.T) {
	p, _ := tempPager(t, 8)
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("allocated page 0")
	}
	payload := []byte("hello pages")
	if err := p.Write(id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Errorf("read back %q", got[:len(payload)])
	}
	if len(got) != PayloadSize {
		t.Errorf("payload length %d", len(got))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.pg")
	p, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	if err := p.Write(id, []byte("persist me")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := p2.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "persist me" {
		t.Errorf("after reopen: %q", got[:10])
	}
	if p2.Pages() != 2 {
		t.Errorf("pages = %d, want 2", p2.Pages())
	}
}

func TestFreeListReuse(t *testing.T) {
	p, _ := tempPager(t, 8)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	c, _ := p.Allocate()
	if c != a {
		t.Errorf("freed page not reused: got %d want %d", c, a)
	}
	// Freed-then-reused page starts zeroed.
	got, _ := p.Read(c)
	for _, by := range got {
		if by != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
	_ = b
	if err := p.Free(0); err == nil {
		t.Error("freeing page 0 should fail")
	}
	if err := p.Free(999); err == nil {
		t.Error("freeing unallocated page should fail")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	p, _ := tempPager(t, 2) // tiny pool forces eviction
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		got, err := p.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Errorf("page %d: got %d want %d", id, got[0], i+1)
		}
	}
	hits, misses := p.Stats()
	if misses == 0 {
		t.Error("expected pool misses with tiny pool")
	}
	_ = hits
}

// emptying adapts a plain page writer to UpdateIndexed: a fn that changes
// the page empties the frame's index, which keeps the index true of the
// bytes without knowing how the change moved them.
func emptying(fn func(payload []byte) (bool, error)) func([]byte, *[]uint16) (bool, error) {
	return func(payload []byte, index *[]uint16) (bool, error) {
		changed, err := fn(payload)
		if changed && err == nil {
			*index = (*index)[:0]
		}
		return changed, err
	}
}

// UpdateIndexed changes the pooled page in place and leaves it as a Write
// of the same bytes would: dirty and written back on eviction and Flush,
// with no pool hit counted. An unchanged or failed update leaves the page
// clean.
func TestUpdateInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.pg")
	reg := obs.NewRegistry()
	p, err := Open(path, Options{PoolPages: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	writes := reg.Counter("pager.page_writes")
	a, _ := p.Allocate()
	if err := p.Write(a, []byte("before")); err != nil {
		t.Fatal(err)
	}
	flushWrites := func() uint64 {
		t.Helper()
		w := writes.Value()
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		return writes.Value() - w - 1 // less the meta page
	}
	flushWrites()

	boom := errors.New("boom")
	hits, misses := p.Stats()
	if err := p.UpdateIndexed(a, emptying(func([]byte) (bool, error) { return false, nil })); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateIndexed(a, emptying(func([]byte) (bool, error) { return false, boom })); !errors.Is(err, boom) {
		t.Fatalf("Update err = %v, want fn's", err)
	}
	if h, m := p.Stats(); h != hits || m != misses {
		t.Errorf("Update counted %d hits, %d misses", h-hits, m-misses)
	}
	if n := flushWrites(); n != 0 {
		t.Errorf("unchanged pages: Flush wrote %d", n)
	}

	if err := p.UpdateIndexed(a, emptying(func(page []byte) (bool, error) {
		copy(page, "after!")
		return true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if n := flushWrites(); n != 1 {
		t.Errorf("changed page: Flush wrote %d, want 1", n)
	}

	// A changed page evicted before any Flush is written back, and an
	// Update of a page out of the pool loads it first.
	if err := p.UpdateIndexed(a, emptying(func(page []byte) (bool, error) {
		copy(page, "third!")
		return true, nil
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	var seen string
	if err := p.UpdateIndexed(a, emptying(func(page []byte) (bool, error) {
		seen = string(page[:6])
		return false, nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, m := p.Stats(); seen != "third!" || m == misses {
		t.Errorf("Update after eviction saw %q, misses %d -> %d", seen, misses, m)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateIndexed(a, emptying(func([]byte) (bool, error) { return true, nil })); err == nil {
		t.Error("update after close should fail")
	}
	p2, err := Open(path, Options{PoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got, err := p2.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "third!" {
		t.Errorf("after reopen: %q", got[:6])
	}
}

func TestChecksumDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.pg")
	p, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	p.Write(id, []byte("important"))
	p.Close()

	// Corrupt one byte of the page payload on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(id)*PageSize+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2, err := Open(path, Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, err := p2.Read(id); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted read: %v", err)
	}
}

func TestWriteValidation(t *testing.T) {
	p, _ := tempPager(t, 4)
	id, _ := p.Allocate()
	if err := p.Write(id, make([]byte, PayloadSize+1)); err == nil {
		t.Error("oversized payload should fail")
	}
	if err := p.Write(999, []byte("x")); err == nil {
		t.Error("writing unallocated page should fail")
	}
}

func TestClosedOperations(t *testing.T) {
	p, _ := tempPager(t, 4)
	id, _ := p.Allocate()
	p.Close()
	if _, err := p.Read(id); err == nil {
		t.Error("read after close should fail")
	}
	if err := p.Write(id, nil); err == nil {
		t.Error("write after close should fail")
	}
	if _, err := p.Allocate(); err == nil {
		t.Error("allocate after close should fail")
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestBadFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.pg")
	if err := os.WriteFile(path, make([]byte, PageSize+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Error("misaligned file should fail to open")
	}
}

// A miss reads into the spare frame, the last victim evicted, so once the
// pool is full a View that misses allocates nothing.
func TestPageMissAllocatesNothing(t *testing.T) {
	p, _ := tempPager(t, 2)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	noop := func([]byte) error { return nil }
	viewAll := func() {
		for _, id := range ids {
			if err := p.View(id, noop); err != nil {
				t.Fatal(err)
			}
		}
	}
	viewAll()
	_, before := p.Stats()
	const runs = 20
	if n := testing.AllocsPerRun(runs, viewAll); n != 0 {
		t.Errorf("a pass of %d View misses allocates %v times", len(ids), n)
	}
	// AllocsPerRun makes one warm-up call before its runs.
	if _, after := p.Stats(); after-before != (runs+1)*uint64(len(ids)) {
		t.Errorf("%d misses over %d views: some were pool hits", after-before, (runs+1)*len(ids))
	}
}

// A dirty page evicted again before the next Flush overwrites its image in
// the pending-evict ledger: re-evicting allocates nothing, and the ledger
// keeps one image per page, the newest.
func TestRepeatEvictionReusesLedgerCopy(t *testing.T) {
	p, _ := tempPager(t, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	a, v := ids[0], byte(0)
	dirty := func(payload []byte) (bool, error) { payload[0] = v; return true, nil }
	noop := func([]byte) error { return nil }
	evictDirty := func() {
		v++
		if err := p.UpdateIndexed(a, emptying(dirty)); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[1:] {
			if err := p.View(id, noop); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := p.frames[a]; ok {
			t.Fatal("the dirty page stayed in the pool: nothing was evicted")
		}
	}
	evictDirty() // the first eviction makes the ledger's copy
	if n := testing.AllocsPerRun(20, evictDirty); n != 0 {
		t.Errorf("re-evicting a page already in the ledger allocates %v times", n)
	}
	if img, ok := p.pendingEvict[a]; len(p.pendingEvict) != 1 || !ok || img[headerSize] != v {
		t.Errorf("ledger holds %d images, want page %d's newest (payload[0] = %d)", len(p.pendingEvict), a, v)
	}
}

// A frame's index stays beside the bytes it was derived from: a hit and an
// update that changes nothing keep it; a Write, an emptying update that
// changes the page, and a miss that reads the page into a recycled frame
// empty it.
func TestIndexDroppedWhenBytesChange(t *testing.T) {
	p, _ := tempPager(t, 2)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	c, _ := p.Allocate()
	index := func(id PageID, fill []uint16) []uint16 {
		t.Helper()
		var seen []uint16
		if err := p.ViewIndexed(id, func(_ []byte, index *[]uint16) error {
			seen = append([]uint16(nil), *index...)
			if len(*index) == 0 {
				*index = append(*index, fill...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	update := func(id PageID, change bool) {
		t.Helper()
		if err := p.UpdateIndexed(id, emptying(func(payload []byte) (bool, error) {
			if change {
				payload[0]++
			}
			return change, nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		what   string
		before func()
		want   []uint16 // the index page a shows after before ran
	}{
		{"first view", func() {}, nil},
		{"a hit", func() {}, []uint16{1, 2}},
		{"an unchanged Update", func() { update(a, false) }, []uint16{1, 2}},
		{"a changing Update", func() { update(a, true) }, nil},
		{"a Write", func() {
			if err := p.Write(a, []byte("new")); err != nil {
				t.Fatal(err)
			}
		}, nil},
		// Indexed views of b and c evict a from the two-frame pool, so a's
		// next view is a miss that reads it into a recycled frame.
		{"a miss into a recycled frame", func() {
			index(b, []uint16{7})
			index(c, []uint16{8})
		}, nil},
	}
	for _, s := range steps {
		s.before()
		if got := index(a, []uint16{1, 2}); !slices.Equal(got, s.want) {
			t.Errorf("after %s: index %v, want %v", s.what, got, s.want)
		}
	}
}

// An UpdateIndexed that changes the page leaves its frame the index fn left
// it, and the next ViewIndexed is handed that index; an emptying update
// empties it. A Flush releases the index of every frame it writes back, keeping no
// capacity, and leaves a clean frame's index as it was.
func TestUpdateIndexedKeepsIndex(t *testing.T) {
	p, _ := tempPager(t, 4)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// seen returns the index id's frame holds, and whether it holds none
	// at all (nil), then fills an empty one with fill.
	seen := func(id PageID, fill ...uint16) ([]uint16, bool) {
		t.Helper()
		var got []uint16
		var released bool
		if err := p.ViewIndexed(id, func(_ []byte, index *[]uint16) error {
			got, released = slices.Clone(*index), *index == nil
			if len(*index) == 0 {
				*index = append(*index, fill...)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got, released
	}
	seen(a, 1, 2)
	seen(b, 7)
	if err := p.UpdateIndexed(a, func(payload []byte, index *[]uint16) (bool, error) {
		payload[0]++
		*index = append((*index)[:0], 3, 4, 5)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := seen(a); !slices.Equal(got, []uint16{3, 4, 5}) {
		t.Errorf("after a changing UpdateIndexed: index %v, want the one it left, [3 4 5]", got)
	}
	if err := p.UpdateIndexed(a, emptying(func(payload []byte) (bool, error) {
		payload[0]++
		return true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if got, _ := seen(a, 6); len(got) != 0 {
		t.Errorf("after a changing Update: index %v, want empty", got)
	}
	if err := p.UpdateIndexed(a, func(payload []byte, index *[]uint16) (bool, error) {
		payload[0]++
		*index = append((*index)[:0], 8)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, released := seen(a); len(got) != 0 || !released {
		t.Errorf("after Flush wrote a back: index %v (released %v), want released", got, released)
	}
	if got, _ := seen(b); !slices.Equal(got, []uint16{7}) {
		t.Errorf("after Flush left b clean: index %v, want [7]", got)
	}
}

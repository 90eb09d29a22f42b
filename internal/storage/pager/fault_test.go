package pager

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"gdbm/internal/storage/vfs"
)

func payload(fill byte) []byte {
	return bytes.Repeat([]byte{fill}, PayloadSize)
}

// TestFlushRetryAfterFailedSync pins the flushLocked contract: dirty bits
// are cleared only after a successful sync, so a Flush retried after a
// failed fsync rewrites the pages the kernel may have dropped.
func TestFlushRetryAfterFailedSync(t *testing.T) {
	fs := vfs.NewFaultFS()
	p, err := Open("p.pg", Options{PoolPages: 8, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(id, payload('A')); err != nil {
		t.Fatal(err)
	}
	// Fail the next sync (the one Flush issues): fsyncgate semantics
	// silently drop the written-but-unsynced bytes.
	fs.SetFaults(vfs.Fault{Kind: vfs.FailSync, Op: fs.Ops() + 3}) // meta write, page write, sync
	if err := p.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("first flush = %v", err)
	}
	if !p.SyncFailed() {
		t.Fatal("SyncFailed not sticky after failed sync")
	}
	// Retried Flush must rewrite and re-sync.
	if err := p.Flush(); err != nil {
		t.Fatalf("retried flush = %v", err)
	}
	if p.SyncFailed() {
		t.Fatal("SyncFailed still set after successful flush")
	}
	// Power cut: only what the successful sync persisted survives.
	fs.Recover()
	p2, err := Open("p.pg", Options{PoolPages: 8, FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := p2.Read(id)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(got, payload('A')) {
		t.Fatal("retried flush did not rewrite the dropped page")
	}
}

// TestFlushRetryRewritesEvictedPages: a dirty page evicted from the pool
// between syncs must survive a failed-then-retried Flush even though its
// frame is gone.
func TestFlushRetryRewritesEvictedPages(t *testing.T) {
	fs := vfs.NewFaultFS()
	p, err := Open("p.pg", Options{PoolPages: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(a, payload('A')); err != nil {
		t.Fatal(err)
	}
	// Allocating and writing a second page evicts page a (pool size 1).
	b, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(b, payload('B')); err != nil {
		t.Fatal(err)
	}
	// Fail every sync until recovery, then let the retry succeed.
	ops := fs.Ops()
	fs.SetFaults(vfs.Fault{Kind: vfs.FailSync, Op: ops + 4}) // meta, evicted a, pooled b, then sync
	if err := p.Flush(); err == nil {
		t.Fatal("flush should fail")
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("retried flush = %v", err)
	}
	fs.Recover()
	p2, err := Open("p.pg", Options{PoolPages: 4, FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for id, fill := range map[PageID]byte{a: 'A', b: 'B'} {
		got, err := p2.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if !bytes.Equal(got, payload(fill)) {
			t.Fatalf("page %d lost after evict + failed sync + retry", id)
		}
	}
}

// TestReadCorruptionNeverServed: bit flips on the read path must surface
// as ErrChecksum, never as silently wrong payloads.
func TestReadCorruptionNeverServed(t *testing.T) {
	fs := vfs.NewFaultFS()
	p, err := Open("p.pg", Options{PoolPages: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, payload(byte('A'+i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Count the reads a clean reopen+scan performs, then corrupt each in
	// turn. Pool size 1 forces every Read to hit the file.
	startReads := fs.Reads()
	reopenScan := func() (map[PageID][]byte, error) {
		p, err := Open("p.pg", Options{PoolPages: 1, FS: fs})
		if err != nil {
			return nil, err
		}
		defer p.Close()
		out := map[PageID][]byte{}
		for _, id := range ids {
			d, err := p.Read(id)
			if err != nil {
				return nil, err
			}
			out[id] = d
		}
		return out, nil
	}
	if _, err := reopenScan(); err != nil {
		t.Fatal(err)
	}
	total := fs.Reads() - startReads

	for r := 1; r <= total; r++ {
		fs.SetFaults(vfs.Fault{Kind: vfs.CorruptRead, Op: fs.Reads() + r})
		got, err := reopenScan()
		if err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("read %d: unexpected error kind %v", r, err)
			}
			continue
		}
		for i, id := range ids {
			if !bytes.Equal(got[id], payload(byte('A'+i))) {
				t.Fatalf("read %d: corrupt page %d served without error", r, id)
			}
		}
	}
}

// TestFailedMissLeavesPoolUnchanged: a miss verifies its page before the
// pool evicts anything, so a read that fails, on a checksum or in the
// file, evicts no frame, writes nothing back, and leaves every resident
// page readable with its bytes.
func TestFailedMissLeavesPoolUnchanged(t *testing.T) {
	fs := vfs.NewFaultFS()
	p, err := Open("p.pg", Options{PoolPages: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, payload(byte('A'+i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Damage page 2 in the file behind the pager's back.
	raw, err := fs.OpenFile("p.pg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte{0xFF}, int64(ids[2])*PageSize+100); err != nil {
		t.Fatal(err)
	}
	// Pages 0 and 1 resident and dirty: an eviction would write one back.
	for _, i := range []int{0, 1} {
		if err := p.Write(ids[i], payload(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	ops, before := fs.Ops(), p.CacheStats()

	misses := []struct {
		name  string
		id    PageID
		fault bool // flip a bit in the bytes the read returns
		want  error
	}{
		{"checksum in the file", ids[2], false, ErrChecksum},
		{"read fault", ids[3], true, ErrChecksum},
		{"read past the end", 999, false, io.EOF},
	}
	for _, m := range misses {
		if m.fault {
			fs.SetFaults(vfs.Fault{Kind: vfs.CorruptRead, Op: fs.Reads() + 1})
		}
		err := p.View(m.id, func([]byte) error {
			t.Errorf("%s: View called fn", m.name)
			return nil
		})
		if !errors.Is(err, m.want) {
			t.Errorf("%s: View = %v, want %v", m.name, err, m.want)
		}
	}
	fs.PowerCut()
	if err := p.View(ids[3], func([]byte) error { return nil }); !errors.Is(err, vfs.ErrPowerCut) {
		t.Errorf("view in a dead file = %v", err)
	}

	if n := fs.Ops() - ops; n != 0 {
		t.Errorf("failed misses issued %d writes", n)
	}
	after := p.CacheStats()
	if after.Evictions != before.Evictions || after.Entries != before.Entries {
		t.Errorf("failed misses changed the pool: %+v, was %+v", after, before)
	}
	for _, i := range []int{0, 1} {
		if err := p.View(ids[i], func(page []byte) error {
			if !bytes.Equal(page, payload(byte('a'+i))) {
				t.Errorf("resident page %d lost its bytes", ids[i])
			}
			return nil
		}); err != nil {
			t.Errorf("resident page %d: %v", ids[i], err)
		}
	}
	if got := p.CacheStats(); got.Hits != after.Hits+2 || got.Misses != after.Misses {
		t.Errorf("resident pages: %d hits and %d misses, want 2 and 0",
			got.Hits-after.Hits, got.Misses-after.Misses)
	}
}

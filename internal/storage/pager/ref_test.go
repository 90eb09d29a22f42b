package pager

import (
	"bytes"
	"testing"

	"gdbm/internal/storage/vfs"
)

// Fuzz opcodes: each takes its operands from the bytes after it.
const (
	opAllocate = iota
	opWrite    // page, length, fill
	opUpdate   // page, offset, value (an odd value changes nothing)
	opView     // page
	opRead     // page
	opFree     // page
	opFlush
	opReopen // pool size
	numOps
)

// FuzzPagerMatchesReference drives a pager over a pool of 1–4 frames
// through Allocate, Write, Update, View, Read, Free, Flush and
// close-and-reopen, taken from the fuzz bytes, against a map of the
// payloads its live pages should hold. Every page read is checked, and
// every live page once more after a final reopen. Small pools make almost
// every access a miss that evicts a dirty victim, so a page read into a
// buffer that the victim's write-back also uses shows as wrong bytes.
func FuzzPagerMatchesReference(f *testing.F) {
	// Pool 1: allocate a and b (b evicts a), fill b, then view a, whose
	// miss evicts dirty b.
	f.Add([]byte{0, opAllocate, opAllocate, opWrite, 1, 255, 'B', opView, 0, opView, 1})
	// Pool 2: three filled pages, an in-place update of an evicted one,
	// a flush, a reopen with one frame and a read of each.
	f.Add([]byte{1,
		opAllocate, opWrite, 0, 40, 'A',
		opAllocate, opWrite, 1, 200, 'B',
		opAllocate, opWrite, 2, 255, 'C',
		opUpdate, 0, 7, 'x', opView, 0,
		opFlush, opReopen, 0,
		opRead, 0, opRead, 1, opRead, 2})
	// Pool 4: free and reallocate, with a change that Update declines.
	f.Add([]byte{3,
		opAllocate, opAllocate, opWrite, 0, 9, 'q',
		opFree, 0, opAllocate, opUpdate, 1, 3, 'y', opRead, 1,
		opReopen, 2, opView, 0, opView, 1})
	f.Fuzz(runRef)
}

func runRef(t *testing.T, ops []byte) {
	if len(ops) > 256 {
		ops = ops[:256]
	}
	take := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	fs := vfs.NewFaultFS()
	open := func(pool int) *Pager {
		t.Helper()
		p, err := Open("p.pg", Options{PoolPages: pool, FS: fs})
		if err != nil {
			t.Fatalf("open with %d frames: %v", pool, err)
		}
		return p
	}
	p := open(1 + take()%4)
	defer func() { p.Close() }()
	ref := map[PageID][]byte{}
	var live []PageID
	pick := func() (int, bool) {
		if len(live) == 0 {
			return 0, false
		}
		return take() % len(live), true
	}
	check := func(op string, id PageID, got []byte) {
		t.Helper()
		if !bytes.Equal(got, ref[id]) {
			t.Fatalf("%s page %d: got %q…, want %q…", op, id, got[:8], ref[id][:8])
		}
	}
	view := func(id PageID) {
		t.Helper()
		var got []byte
		if err := p.View(id, func(page []byte) error {
			got = append(got, page...)
			return nil
		}); err != nil {
			t.Fatalf("view %d: %v", id, err)
		}
		check("view", id, got)
	}
	for len(ops) > 0 {
		switch take() % numOps {
		case opAllocate:
			id, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if _, taken := ref[id]; taken || id == 0 {
				t.Fatalf("allocate returned live page %d", id)
			}
			ref[id] = make([]byte, PayloadSize)
			live = append(live, id)
		case opWrite:
			i, ok := pick()
			n, fill := take()*PayloadSize/255, byte(take())
			if !ok {
				continue
			}
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = fill + byte(j)
			}
			if err := p.Write(live[i], buf); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, PayloadSize)
			copy(want, buf)
			ref[live[i]] = want
		case opUpdate:
			i, ok := pick()
			at, v := take()*(PayloadSize-1)/255, byte(take())
			if !ok {
				continue
			}
			if err := p.UpdateIndexed(live[i], emptying(func(page []byte) (bool, error) {
				if v%2 == 1 {
					return false, nil
				}
				page[at] = v
				return true, nil
			})); err != nil {
				t.Fatal(err)
			}
			if v%2 == 0 {
				ref[live[i]][at] = v
			}
		case opView:
			if i, ok := pick(); ok {
				view(live[i])
			}
		case opRead:
			if i, ok := pick(); ok {
				got, err := p.Read(live[i])
				if err != nil {
					t.Fatal(err)
				}
				check("read", live[i], got)
			}
		case opFree:
			i, ok := pick()
			if !ok {
				continue
			}
			if err := p.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			delete(ref, live[i])
			live = append(live[:i], live[i+1:]...)
		case opFlush:
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		case opReopen:
			pool := 1 + take()%4
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			p = open(pool)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p = open(1)
	for _, id := range live {
		view(id)
	}
}

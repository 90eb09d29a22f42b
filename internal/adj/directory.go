package adj

import (
	"math/bits"
	"sort"
)

// directory maps a local ID (0..blockSize-1) to its dense slot inside a
// block, in one of two layouts:
//
//   - varint: the present local IDs as a sorted []uint16, slot found by
//     binary search — compact when the block is sparse;
//   - bitmap: a 512-bit presence bitmap with per-word cumulative counts,
//     slot found by popcount rank — constant-time membership, the
//     DEX-style compressed-bitmap organization bitmapdb selects.
type directory struct {
	ids []uint16   // varint layout; nil under bitmap layout
	bm  *bitmapDir // bitmap layout; nil under varint layout
}

type bitmapDir struct {
	bits [blockSize / 64]uint64
	cum  [blockSize / 64]uint16 // number of set bits in words < i
}

// makeDirectory builds the directory for the given sorted local IDs.
func makeDirectory(layout Layout, locals []uint16) directory {
	if layout == LayoutBitmap {
		bm := &bitmapDir{}
		for _, l := range locals {
			bm.bits[l>>6] |= 1 << (l & 63)
		}
		n := uint16(0)
		for i := range bm.bits {
			bm.cum[i] = n
			n += uint16(bits.OnesCount64(bm.bits[i]))
		}
		return directory{bm: bm}
	}
	ids := make([]uint16, len(locals))
	copy(ids, locals)
	return directory{ids: ids}
}

// rank returns the dense slot of local and whether it is present.
func (d *directory) rank(local uint32) (int, bool) {
	if d.bm != nil {
		w, b := local>>6, local&63
		word := d.bm.bits[w]
		if word>>b&1 == 0 {
			return 0, false
		}
		return int(d.bm.cum[w]) + bits.OnesCount64(word&(1<<b-1)), true
	}
	i := sort.Search(len(d.ids), func(i int) bool { return uint32(d.ids[i]) >= local })
	if i < len(d.ids) && uint32(d.ids[i]) == local {
		return i, true
	}
	return 0, false
}

// locals returns the present local IDs in ascending order. Under the
// varint layout this is the directory's own array; callers must not
// modify it.
func (d *directory) locals() []uint16 {
	if d.bm == nil {
		return d.ids
	}
	out := make([]uint16, 0, blockSize)
	for w, word := range d.bm.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint16(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

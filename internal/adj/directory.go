package adj

import "slices"

// directory maps a local ID (0..blockSize-1) to its dense slot inside a
// block: the present local IDs in ascending order, the slot found by
// binary search. It is shared by every block version whose membership did
// not change, so nothing may modify it.
type directory []uint16

// makeDirectory builds the directory for the given sorted local IDs.
func makeDirectory(locals []uint16) directory { return slices.Clone(locals) }

// rank returns the dense slot of local and whether it is present.
func (d directory) rank(local uint32) (int, bool) {
	return slices.BinarySearch(d, uint16(local))
}

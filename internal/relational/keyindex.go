package relational

import (
	"math/bits"
	"slices"
)

// keyIndex is an insertion-ordered open-addressing index over keyRefs.
// It is probed with keyRef.hash(), the hash that also routes a key to its
// reducer, so the keyed operators hash each record once. Entries are
// numbered 0, 1, ... in first-insertion order; callers keep per-entry
// values in slices indexed by that number, so walking entries in number
// order visits keys in the order an insertion-ordered map would.
type keyIndex struct {
	slots  []int32 // entry number + 1; 0 marks an empty slot
	shift  uint    // 64 - log2(len(slots))
	keys   []keyRef
	hashes []uint64
}

// len returns the entry count.
func (x *keyIndex) len() int { return len(x.keys) }

// home is h's first slot. It takes the high bits of a multiplicative
// remix: the keys one reducer sees share h mod machines, and with it
// their low bits.
func (x *keyIndex) home(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> x.shift }

// insert returns k's entry number and whether k was present, adding k as
// the next entry if it was not. h must be k.hash().
func (x *keyIndex) insert(k keyRef, h uint64) (int, bool) {
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.home(h); ; i = (i + 1) & mask {
		e := x.slots[i] - 1
		if e < 0 {
			x.slots[i] = int32(len(x.keys)) + 1
			x.keys = append(x.keys, k)
			x.hashes = append(x.hashes, h)
			return len(x.keys) - 1, false
		}
		if x.hashes[e] == h && x.keys[e] == k {
			return int(e), true
		}
	}
}

// find returns k's entry number, or false if k is absent. h must be
// k.hash().
func (x *keyIndex) find(k keyRef, h uint64) (int, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.home(h); ; i = (i + 1) & mask {
		e := x.slots[i] - 1
		if e < 0 {
			return 0, false
		}
		if x.hashes[e] == h && x.keys[e] == k {
			return int(e), true
		}
	}
}

// grow doubles the slot table (at least 16 slots), and the entries'
// capacity with it, and re-places every entry, keeping the load at or
// under one half.
func (x *keyIndex) grow() {
	n := max(2*len(x.slots), 16)
	x.slots = make([]int32, n)
	x.keys = slices.Grow(x.keys, n/2-len(x.keys))
	x.hashes = slices.Grow(x.hashes, n/2-len(x.hashes))
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for e, h := range x.hashes {
		i := x.home(h)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = int32(e) + 1
	}
}

// carver hands out pieces of chunks that are never grown or reused, so a
// piece, or a pointer into one, stays valid for good. A piece has
// cap == len: appending to a carved tuple copies it rather than
// overwriting its neighbour. Chunks double from 16 to 4,096 elements.
type carver[T any] struct {
	buf  []T
	next int
}

// take returns n fresh zero elements.
func (c *carver[T]) take(n int) []T {
	if len(c.buf) < n {
		c.next = min(max(2*c.next, 16), 4096)
		c.buf = make([]T, max(n, c.next))
	}
	s := c.buf[:n:n]
	c.buf = c.buf[n:]
	return s
}

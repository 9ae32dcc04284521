// Package ordmap provides the repository's insertion-ordered hash map.
// The platform engines use it instead of raw Go maps wherever iteration
// order would otherwise leak nondeterminism into combine order, shuffle
// layout, or downstream RNG consumption — the reproduction's cross-engine
// agreement tests depend on bit-identical trajectories.
package ordmap

import (
	"fmt"
	"math/bits"
	"slices"
)

// Map is an insertion-ordered map from K to V: a flat open-addressing
// index over entries numbered 0, 1, ... in first-insertion order. Callers
// that already hold a key's hash (a shuffle's routing hash, a dense slot)
// pass it to Put and Find; Get, Set and Ref hash with Hash. The zero value
// is an empty map.
type Map[K comparable, V any] struct {
	slots   []int32 // entry number + 1; 0 marks an empty slot
	shift   uint    // 64 - log2(len(slots))
	entries []Entry[K, V]
}

// Entry is one key, its value, and the hash it was inserted under. Hash
// comes last so that a zero-size V (a set) adds no padding: Go pads a
// struct whose final field has size zero.
type Entry[K comparable, V any] struct {
	Key  K
	Val  V
	Hash uint64
}

// New returns an empty map.
func New[K comparable, V any]() *Map[K, V] { return &Map[K, V]{} }

// Len returns the entry count.
func (o *Map[K, V]) Len() int { return len(o.entries) }

// Entries returns the entries in insertion order, entry i at index i.
// Callers may change a Val, but not a Key or Hash, and must not keep the
// slice past the next insertion.
func (o *Map[K, V]) Entries() []Entry[K, V] { return o.entries }

// home is h's first slot. It takes the high bits of a multiplicative
// remix, so hashes that share their low bits (the keys one reducer sees
// share h mod reducers) still spread.
func (o *Map[K, V]) home(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> o.shift }

// Put returns k's entry number and whether k was present, adding k with
// the zero value as the next entry if it was not. h is k's hash; every
// call on one map must pass the same hash for equal keys.
func (o *Map[K, V]) Put(k K, h uint64) (int, bool) {
	if 2*(len(o.entries)+1) > len(o.slots) {
		o.grow()
	}
	mask := uint64(len(o.slots) - 1)
	for i := o.home(h); ; i = (i + 1) & mask {
		e := o.slots[i] - 1
		if e < 0 {
			o.slots[i] = int32(len(o.entries)) + 1
			o.entries = append(o.entries, Entry[K, V]{Key: k, Hash: h})
			return len(o.entries) - 1, false
		}
		if o.entries[e].Hash == h && o.entries[e].Key == k {
			return int(e), true
		}
	}
}

// Find returns k's entry number, or false if k is absent. h is k's hash,
// as for Put.
func (o *Map[K, V]) Find(k K, h uint64) (int, bool) {
	if len(o.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(o.slots) - 1)
	for i := o.home(h); ; i = (i + 1) & mask {
		e := o.slots[i] - 1
		if e < 0 {
			return 0, false
		}
		if o.entries[e].Hash == h && o.entries[e].Key == k {
			return int(e), true
		}
	}
}

// grow doubles the index, and the entries' capacity with it, and
// re-places every entry, keeping the load at or under one half. Growing
// the entries here rather than by append keeps their capacity doubling:
// past 256 elements append grows by about 1.25×. The index starts at two
// slots: a shuffle holds one small map per (partition, target) pair, and
// most of them hold one or two keys.
func (o *Map[K, V]) grow() {
	n := max(2*len(o.slots), 2)
	o.slots = make([]int32, n)
	o.entries = slices.Grow(o.entries, n/2-len(o.entries))
	o.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for e := range o.entries {
		i := o.home(o.entries[e].Hash)
		for o.slots[i] != 0 {
			i = (i + 1) & mask
		}
		o.slots[i] = int32(e) + 1
	}
}

// Reset empties the map, keeping its buffers and dropping what its
// entries referenced.
func (o *Map[K, V]) Reset() {
	clear(o.entries)
	o.entries = o.entries[:0]
	clear(o.slots)
}

// Get returns the value for k and whether it is present.
func (o *Map[K, V]) Get(k K) (V, bool) {
	if i, ok := o.Find(k, Hash(k)); ok {
		return o.entries[i].Val, true
	}
	var zero V
	return zero, false
}

// Set inserts or replaces the value for k, preserving first-insertion order.
func (o *Map[K, V]) Set(k K, v V) {
	i, _ := o.Put(k, Hash(k))
	o.entries[i].Val = v
}

// Ref returns a pointer to k's value, inserting the zero value first if k
// is absent, and whether k was present, in one lookup. The pointer is
// valid until the next insertion.
func (o *Map[K, V]) Ref(k K) (*V, bool) {
	i, ok := o.Put(k, Hash(k))
	return &o.entries[i].Val, ok
}

// Each visits entries in insertion order.
func (o *Map[K, V]) Each(f func(k K, v V)) {
	for _, e := range o.entries {
		f(e.Key, e.Val)
	}
}

// Hash deterministically hashes a comparable key: a 64-bit finalizer for
// int, int64, int32 and uint64, FNV-1a over the bytes of a string, and
// FNV-1a over the %v text of anything else (named types included, so a
// caller keyed by one passes its own hash to Put and Find). Dataflow
// routes shuffled keys by it, so its values are output.
func Hash[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case int:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case string:
		return fnv1a(v)
	default:
		return hashText(k)
	}
}

// hashText is FNV-1a of k's %v text, apart from Hash so that only this
// path makes k escape.
func hashText[K comparable](k K) uint64 { return fnv1a(fmt.Sprintf("%v", k)) }

// fnv1a is 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the MurmurHash3 64-bit finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Package ordmap provides a small insertion-ordered map. The platform
// engines use it instead of raw Go maps wherever iteration order would
// otherwise leak nondeterminism into combine order, shuffle layout, or
// downstream RNG consumption — the reproduction's cross-engine agreement
// tests depend on bit-identical trajectories.
package ordmap

// Map is an insertion-ordered map from K to V. The zero value is not
// usable; construct with New.
type Map[K comparable, V any] struct {
	idx  map[K]int
	keys []K
	vals []V
}

// New returns an empty ordered map.
func New[K comparable, V any]() *Map[K, V] {
	return &Map[K, V]{idx: make(map[K]int)}
}

// Get returns the value for k and whether it is present.
func (o *Map[K, V]) Get(k K) (V, bool) {
	if i, ok := o.idx[k]; ok {
		return o.vals[i], true
	}
	var zero V
	return zero, false
}

// Set inserts or replaces the value for k, preserving first-insertion order.
func (o *Map[K, V]) Set(k K, v V) {
	if i, ok := o.idx[k]; ok {
		o.vals[i] = v
		return
	}
	o.idx[k] = len(o.keys)
	o.keys = append(o.keys, k)
	o.vals = append(o.vals, v)
}

// Merge folds v into the existing value for k with f, or inserts v.
func (o *Map[K, V]) Merge(k K, v V, f func(old, new V) V) {
	if i, ok := o.idx[k]; ok {
		o.vals[i] = f(o.vals[i], v)
		return
	}
	o.Set(k, v)
}

// Ref returns a pointer to k's value, inserting the zero value first if k
// is absent, and whether k was present, in one lookup. The pointer is
// valid until the next insertion.
func (o *Map[K, V]) Ref(k K) (*V, bool) {
	if i, ok := o.idx[k]; ok {
		return &o.vals[i], true
	}
	var zero V
	o.idx[k] = len(o.keys)
	o.keys = append(o.keys, k)
	o.vals = append(o.vals, zero)
	return &o.vals[len(o.vals)-1], false
}

// Len returns the entry count.
func (o *Map[K, V]) Len() int { return len(o.keys) }

// Each visits entries in insertion order.
func (o *Map[K, V]) Each(f func(k K, v V)) {
	for i, k := range o.keys {
		f(k, o.vals[i])
	}
}

// Keys returns the keys in insertion order. The caller must not modify
// the returned slice.
func (o *Map[K, V]) Keys() []K { return o.keys }

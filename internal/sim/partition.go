package sim

import (
	"fmt"
	"sync"
)

// DefaultChunkElems is the streamed-partition chunk size used when
// Config.ChunkElems is zero: how many elements a Cursor hands out per
// Next call. The value only controls hand-off granularity — every
// consumer sees the same element stream in the same order at any chunk
// size, so tables and traces are byte-identical across values.
const DefaultChunkElems = 4096

// ChunkElems resolves the cluster's streamed-partition chunk size.
func (c *Cluster) ChunkElems() int {
	if c.cfg.ChunkElems > 0 {
		return c.cfg.ChunkElems
	}
	return DefaultChunkElems
}

// A Source streams one deterministically regenerable partition — one
// simulated machine's data shard — in pooled fixed-size chunks, so a
// 10,000-machine sweep holds chunk-sized buffers for the machines
// currently on host workers instead of 10,000 resident partitions.
//
// The open hook returns a fresh sequential generator positioned at
// element 0; it is invoked once per cursor, so it must rebuild any
// internal state (typically a seeded RNG replaying the exact draw
// pattern of the historical materialized generator) from scratch.
// Because regeneration is pure, a Source can be iterated any number of
// times — the two-pass moment computations the engines rely on for
// byte-identity simply open two cursors.
//
// Because each generator is also independent of every other, a cursor
// closed short of the partition's end can hand its generator on: the
// source parks it with its position, and the next Range starting at or
// past that position resumes it instead of regenerating the prefix.
// Walking a partition's blocks in order therefore generates each element
// once. At most one generator is parked per source.
type Source[T any] struct {
	n     int
	chunk int
	open  func() func() T
	pool  sync.Pool // *[]T chunk buffers, reused across cursors

	mu       sync.Mutex
	parked   func() T // generator handed on by the last cursor closed short of n
	parkedAt int      // elements parked has already yielded
}

// NewSource builds a source of n elements streamed in chunks of the
// given size (<= 0 selects DefaultChunkElems). open returns a fresh
// element generator; successive calls to the returned function yield
// elements 0, 1, 2, ... of the partition.
func NewSource[T any](n, chunk int, open func() func() T) *Source[T] {
	if n < 0 {
		panic("sim: negative source length")
	}
	if chunk <= 0 {
		chunk = DefaultChunkElems
	}
	// A chunk can never exceed the partition, so cap the pooled buffer
	// capacity at n: a huge -chunk over many small scaled-down partitions
	// must not allocate a huge buffer per source.
	if chunk > n && n > 0 {
		chunk = n
	}
	s := &Source[T]{n: n, chunk: chunk, open: open}
	s.pool.New = func() any {
		b := make([]T, 0, chunk)
		return &b
	}
	return s
}

// Len returns the element count of the partition.
func (s *Source[T]) Len() int { return s.n }

// ChunkSize returns the source's hand-off granularity.
func (s *Source[T]) ChunkSize() int { return s.chunk }

// Cursor opens a cursor over the full partition.
func (s *Source[T]) Cursor() *Cursor[T] { return s.Range(0, s.n) }

// Range opens a cursor over elements [lo, hi). The generator draws a
// variable number of random values per element, so there is no random
// access: elements before lo are generated and discarded. If a generator
// is parked at or before lo, the cursor takes it and discards only the
// gap, so consecutive blocks walked in order cost their own size; any
// other lo opens a fresh generator and discards the prefix [0, lo).
func (s *Source[T]) Range(lo, hi int) *Cursor[T] {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("sim: source range [%d, %d) outside [0, %d)", lo, hi, s.n))
	}
	next, at := s.unpark(lo)
	if next == nil {
		next, at = s.open(), 0
	}
	for ; at < lo; at++ {
		next()
	}
	return &Cursor[T]{src: s, next: next, pos: lo, end: hi}
}

// unpark takes the parked generator if it has yielded at most lo
// elements, leaving the slot empty so no two cursors share it.
func (s *Source[T]) unpark(lo int) (func() T, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parked == nil || s.parkedAt > lo {
		return nil, 0
	}
	next := s.parked
	s.parked = nil
	return next, s.parkedAt
}

// park hands a generator that has yielded at elements to the next Range,
// replacing any generator parked before it.
func (s *Source[T]) park(next func() T, at int) {
	s.mu.Lock()
	s.parked, s.parkedAt = next, at
	s.mu.Unlock()
}

// Cursor walks one partition (or block) chunk by chunk. It is owned by
// a single host goroutine; Close returns its buffer to the source's
// pool for the next cursor.
type Cursor[T any] struct {
	src  *Source[T]
	next func() T
	pos  int
	end  int
	buf  *[]T
}

// Next returns the next chunk, or (nil, false) at the end. The returned
// slice is only valid until the following Next or Close call — it is
// the cursor's pooled buffer, refilled in place.
func (c *Cursor[T]) Next() ([]T, bool) {
	if c.pos >= c.end {
		return nil, false
	}
	if c.buf == nil {
		c.buf = c.src.pool.Get().(*[]T)
	}
	n := c.src.chunk
	if rem := c.end - c.pos; rem < n {
		n = rem
	}
	// A generator that panics mid-chunk is at an unknown position, so it
	// is detached from the cursor until the chunk is complete and Close
	// cannot park it.
	next := c.next
	c.next = nil
	b := (*c.buf)[:0]
	for i := 0; i < n; i++ {
		b = append(b, next())
	}
	*c.buf = b
	c.next = next
	c.pos += n
	return b, true
}

// Close releases the cursor's buffer back to the pool and, if the
// cursor stopped short of the partition's end, parks its generator on
// the source for the next block. The buffer is cleared first so pooled
// spines do not pin element storage (vectors, documents) across reuses.
func (c *Cursor[T]) Close() {
	if c.buf != nil {
		b := (*c.buf)[:cap(*c.buf)]
		var zero T
		for i := range b {
			b[i] = zero
		}
		*c.buf = b[:0]
		c.src.pool.Put(c.buf)
		c.buf = nil
	}
	if c.next != nil && c.pos < c.src.n {
		c.src.park(c.next, c.pos)
	}
	c.next = nil
	c.pos = c.end
}

// Each streams the whole partition through fn, chunk by chunk.
func (s *Source[T]) Each(fn func(T)) { s.EachRange(0, s.n, fn) }

// EachRange streams elements [lo, hi) through fn.
func (s *Source[T]) EachRange(lo, hi int, fn func(T)) {
	cur := s.Range(lo, hi)
	defer cur.Close()
	for {
		chunk, ok := cur.Next()
		if !ok {
			return
		}
		for i := range chunk {
			fn(chunk[i])
		}
	}
}

// Materialize regenerates the partition as one resident slice. It is
// the compatibility bridge for paradigm-faithful formulations that hold
// their partition in (simulated) memory — the per-point vertex layouts
// that the paper shows running out of RAM — and for small blocks whose
// per-element state must persist across iterations.
func (s *Source[T]) Materialize() []T {
	out := make([]T, 0, s.n)
	s.Each(func(v T) { out = append(out, v) })
	return out
}

// MaterializeRange regenerates block [lo, hi) as a resident slice.
func (s *Source[T]) MaterializeRange(lo, hi int) []T {
	out := make([]T, 0, hi-lo)
	s.EachRange(lo, hi, func(v T) { out = append(out, v) })
	return out
}

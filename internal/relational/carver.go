package relational

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

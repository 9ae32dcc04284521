package relational

// carver hands out tuples carved from chunks that are never grown or
// reused, so a carved tuple stays valid for good. A tuple has
// cap == len: appending to it copies it rather than overwriting its
// neighbour. Chunks double from 16 to 4,096 cells.
type carver struct {
	buf  []float64
	next int
}

// take returns a fresh zero tuple of n cells.
func (c *carver) take(n int) Tuple {
	if len(c.buf) < n {
		c.next = min(max(2*c.next, 16), 4096)
		c.buf = make([]float64, max(n, c.next))
	}
	s := c.buf[:n:n]
	c.buf = c.buf[n:]
	return s
}

// clone returns a carved copy of t.
func (c *carver) clone(t Tuple) Tuple {
	out := c.take(len(t))
	copy(out, t)
	return out
}

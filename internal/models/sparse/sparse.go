// Package sparse holds the count partial every HMM and LDA sender builds:
// the statistics one document, block, partition or worker contributes
// before they are folded into a receiver's dense total. A sender touches
// at most a few entries per token, so the partial stores only those,
// sized by the tokens it holds rather than by the K×V or T×V model shape.
//
// Folding a partial adds only its touched entries, so each dense entry
// receives the same addends in the same order as a dense partial would
// give it; the skipped additions are of exact zeros, which leave a
// nonnegative count unchanged. Results are therefore bit-identical to
// dense accumulation for any weight.
package sparse

import "mlbench/internal/linalg"

// Counts is a sparse rows × width count matrix. Entries are created on
// first touch and kept in touch order, which fixes every iteration order
// (and so every downstream float sequence) independent of Go map order.
type Counts struct {
	width int
	idx   map[int]int // row*width + col -> position in keys/vals
	keys  []int
	vals  []float64
}

// New returns an empty partial whose rows are width entries wide.
func New(width int) *Counts {
	return &Counts{width: width, idx: make(map[int]int)}
}

// Add adds w to entry (row, col).
func (c *Counts) Add(row, col int, w float64) { c.add(row*c.width+col, w) }

func (c *Counts) add(k int, w float64) {
	if i, ok := c.idx[k]; ok {
		c.vals[i] += w
		return
	}
	c.idx[k] = len(c.keys)
	c.keys = append(c.keys, k)
	c.vals = append(c.vals, w)
}

// Merge adds every entry of o, which must have c's width, into c in o's
// touch order.
func (c *Counts) Merge(o *Counts) {
	for i, k := range o.keys {
		c.add(k, o.vals[i])
	}
}

// AddTo folds c into the dense matrix rows: rows[r][col] += c(r, col)
// for every touched entry, in touch order.
func (c *Counts) AddTo(rows []linalg.Vec) {
	for i, k := range c.keys {
		rows[k/c.width][k%c.width] += c.vals[i]
	}
}

// Each visits the touched entries in touch order.
func (c *Counts) Each(f func(row, col int, v float64)) {
	for i, k := range c.keys {
		f(k/c.width, k%c.width, c.vals[i])
	}
}

// Len returns the number of touched entries.
func (c *Counts) Len() int { return len(c.keys) }

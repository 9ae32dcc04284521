// Package relational implements a SimSQL-like distributed relational
// engine on the simulated cluster: partitioned tables, tuple-at-a-time
// operators (select, project, hash join, cross-product join, group-by
// aggregation, union), randomized table-valued VG functions, and a
// versioned-table driver for expressing MCMC simulations as mutually
// recursive table definitions.
//
// The engine reproduces the SimSQL behaviours the paper's evaluation turns
// on: everything is a tuple (a 1,000 x 1,000 matrix is a million tuples —
// the Bayesian Lasso Gram-matrix pain), every wide operator is a Hadoop
// MapReduce job with tens of seconds of launch overhead and disk-spilled
// intermediates (the long initialization times), per-tuple engine cost
// under the SQL profile, and the optimizer quirk that turns arithmetic
// equality join predicates into cross products (the HMM nextPos
// workaround). On the positive side, the engine streams between jobs via
// disk rather than buffering in memory, which is why SimSQL is the one
// platform in the paper that never runs out of memory.
package relational

import (
	"fmt"
	"math"
)

// Kind describes the logical type of a column. Values are stored as
// float64 either way (integers remain exact up to 2^53); Kind documents
// intent and drives formatting.
type Kind uint8

const (
	// KindInt marks an integer-valued column (ids, counts).
	KindInt Kind = iota
	// KindFloat marks a real-valued column.
	KindFloat
)

// Col is one column of a schema.
type Col struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Col

// Ints is a convenience constructor for an all-integer schema.
func Ints(names ...string) Schema {
	s := make(Schema, len(names))
	for i, n := range names {
		s[i] = Col{Name: n, Kind: KindInt}
	}
	return s
}

// Floats is a convenience constructor for an all-float schema.
func Floats(names ...string) Schema {
	s := make(Schema, len(names))
	for i, n := range names {
		s[i] = Col{Name: n, Kind: KindFloat}
	}
	return s
}

// Concat returns s followed by t (join output schema).
func (s Schema) Concat(t Schema) Schema {
	out := make(Schema, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// Tuple is one row: a flat vector of float64 storage cells.
type Tuple []float64

// Int reads column i as an integer.
func (t Tuple) Int(i int) int64 { return int64(t[i]) }

// Float reads column i as a float.
func (t Tuple) Float(i int) float64 { return t[i] }

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// T builds a tuple from values.
func T(vals ...float64) Tuple { return Tuple(vals) }

// tupleBytes is the simulated wire/disk size of a tuple: 8 bytes per cell
// plus fixed record overhead (headers, keys).
func tupleBytes(width int) int64 { return int64(8*width) + 16 }

// Table is a named, schema-carrying relation partitioned across the
// cluster's machines. A base table may be generator-backed: Gen streams
// a partition's rows on demand instead of holding them in Parts, so a
// scan-side pass over a paper-scale relation never materializes it (the
// SimSQL-faithful behaviour — base tables live in HDFS and stream
// through map tasks). Operator outputs are always materialized (they
// model disk-spilled intermediates). Readers go through PartLen/EachRow
// so both representations behave identically.
type Table struct {
	Name   string
	Schema Schema
	Parts  [][]Tuple
	// Gen, when non-nil, streams partition part's rows through yield in
	// deterministic row order; Parts is ignored for such tables. The
	// generator must be pure: repeated walks yield the same rows.
	Gen func(part int, yield func(Tuple))
	// GenRows holds the per-partition row counts of a generator-backed
	// table (len == number of partitions).
	GenRows []int
	// Scaled marks data-proportional cardinality: costs for scaled tables
	// are multiplied by the cluster's scale factor. Model-sized tables
	// (one row per cluster/state/topic) are unscaled.
	Scaled bool
}

// NewTable creates an empty table with one partition per machine.
func NewTable(name string, schema Schema, machines int) *Table {
	return &Table{Name: name, Schema: schema, Parts: make([][]Tuple, machines)}
}

// NumParts returns the partition count.
func (t *Table) NumParts() int {
	if t.Gen != nil {
		return len(t.GenRows)
	}
	return len(t.Parts)
}

// PartLen returns partition part's row count.
func (t *Table) PartLen(part int) int {
	if t.Gen != nil {
		return t.GenRows[part]
	}
	return len(t.Parts[part])
}

// EachRow streams partition part's rows through fn in row order.
func (t *Table) EachRow(part int, fn func(Tuple)) {
	if t.Gen != nil {
		t.Gen(part, fn)
		return
	}
	for _, row := range t.Parts[part] {
		fn(row)
	}
}

// NumRows returns the total row count.
func (t *Table) NumRows() int {
	n := 0
	for p := 0; p < t.NumParts(); p++ {
		n += t.PartLen(p)
	}
	return n
}

// Rows returns all rows in partition order (for tests and small results),
// materializing generator-backed partitions.
func (t *Table) Rows() []Tuple {
	out := make([]Tuple, 0, t.NumRows())
	for p := 0; p < t.NumParts(); p++ {
		t.EachRow(p, func(row Tuple) { out = append(out, row) })
	}
	return out
}

// keyRef is a comparable join/group key of up to four columns.
type keyRef struct {
	n uint8
	v [4]uint64
}

func keyOf(t Tuple, cols []int) keyRef {
	if len(cols) > 4 {
		panic(fmt.Sprintf("relational: keys limited to 4 columns, got %d", len(cols)))
	}
	var k keyRef
	k.n = uint8(len(cols))
	for i, c := range cols {
		k.v[i] = math.Float64bits(t[c])
	}
	return k
}

func (k keyRef) hash() uint64 {
	h := uint64(1469598103934665603)
	for i := uint8(0); i < k.n; i++ {
		h ^= k.v[i]
		h *= 1099511628211
	}
	// Final avalanche so sequential integer keys spread across partitions.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

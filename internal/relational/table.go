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
// cluster's machines. A table may be generator-backed: Gen streams a
// partition's rows on demand instead of holding them in Parts, so a pass
// over a paper-scale relation never materializes it (the SimSQL-faithful
// behaviour — base tables live in HDFS and stream through map tasks, and
// pipelined stages stream between them). Select and project outputs are
// such views over their input; the wide operators' outputs (join, GROUP
// BY, VG) are materialized, modelling disk-spilled intermediates.
// Readers go through PartLen/EachRow so both representations behave
// identically.
type Table struct {
	Name   string
	Schema Schema
	Parts  [][]Tuple
	// Gen, when non-nil, streams partition part's rows through yield in
	// deterministic row order; Parts is ignored for such tables. The
	// generator must be pure: repeated walks yield the same rows. A
	// yielded row is borrowed: it is valid only during the yield, so a
	// generator may reuse one row for a whole walk, and a reader that
	// keeps rows copies them. Walks of different partitions may run
	// concurrently.
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

// EachRow streams partition part's rows through fn in row order. The
// rows of a generator-backed table are borrowed (see Table.Gen).
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
// copying generator-backed partitions' rows.
func (t *Table) Rows() []Tuple {
	out := make([]Tuple, 0, t.NumRows())
	var cells carver
	for p := 0; p < t.NumParts(); p++ {
		out = t.appendRows(p, &cells, out)
	}
	return out
}

// appendRows appends partition part's rows to dst: a materialized
// table's own rows, or copies of a generator's, carved from cells.
func (t *Table) appendRows(part int, cells *carver, dst []Tuple) []Tuple {
	if t.Gen == nil {
		return append(dst, t.Parts[part]...)
	}
	t.Gen(part, func(row Tuple) { dst = append(dst, cells.clone(row)) })
	return dst
}

// materialized returns t with every partition held in Parts: t itself,
// or a copy of a generator-backed table's rows.
func (t *Table) materialized() *Table {
	if t.Gen == nil {
		return t
	}
	out := NewTable(t.Name, t.Schema, t.NumParts())
	out.Scaled = t.Scaled
	var cells carver
	for p := range out.Parts {
		out.Parts[p] = t.appendRows(p, &cells, make([]Tuple, 0, t.PartLen(p)))
	}
	return out
}

// RowSlab builds rows of one width carved from a single backing array
// sized up front, so n rows cost two allocations rather than n.
type RowSlab struct {
	rows  []Tuple
	cells []float64
}

// NewRowSlab returns an empty slab with room for n rows of width cells.
func NewRowSlab(n, width int) *RowSlab {
	return &RowSlab{rows: make([]Tuple, 0, n), cells: make([]float64, 0, n*width)}
}

// Add appends one row holding vals.
func (s *RowSlab) Add(vals ...float64) {
	lo := len(s.cells)
	s.cells = append(s.cells, vals...)
	s.rows = append(s.rows, s.cells[lo:len(s.cells):len(s.cells)])
}

// Rows returns the rows added so far.
func (s *RowSlab) Rows() []Tuple { return s.rows }

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

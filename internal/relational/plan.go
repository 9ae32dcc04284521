package relational

// Plan is a relational operator tree. Build plans with the constructor
// functions (ScanT, SelectP, ProjectP, HashJoinP, ArithJoinP, GroupAggP,
// VGApplyP, AsModelP) and execute them with Engine.Run.
type Plan interface {
	// Schema returns the output schema.
	Schema() Schema
	// scaled reports whether the output cardinality is data-proportional.
	scaled() bool
	// run executes the subtree and returns its output table: a view
	// for select and project, materialized for the wide operators.
	run(e *Engine) (*Table, error)
}

// scanNode reads an existing table.
type scanNode struct{ t *Table }

// ScanT scans a materialized table.
func ScanT(t *Table) Plan { return &scanNode{t: t} }

func (n *scanNode) Schema() Schema { return n.t.Schema }
func (n *scanNode) scaled() bool   { return n.t.Scaled }

// selectNode filters rows.
type selectNode struct {
	in   Plan
	pred func(Tuple) bool
}

// SelectP keeps rows for which pred is true. pred must be pure: the
// selection is re-run whenever its output is read.
func SelectP(in Plan, pred func(Tuple) bool) Plan { return &selectNode{in: in, pred: pred} }

func (n *selectNode) Schema() Schema { return n.in.Schema() }
func (n *selectNode) scaled() bool   { return n.in.scaled() }

// projectNode maps each row to a new row.
type projectNode struct {
	in  Plan
	out Schema
	fn  func(in, out Tuple)
}

// ProjectP applies fn to every row, producing rows with schema out.
// It subsumes SQL projection and scalar expressions. fn writes every
// column of out, a row of len(out) that the operator owns and reuses
// from row to row; fn must be pure, since the projection is re-run
// whenever its output is read.
func ProjectP(in Plan, out Schema, fn func(in, out Tuple)) Plan {
	return &projectNode{in: in, out: out, fn: fn}
}

func (n *projectNode) Schema() Schema { return n.out }
func (n *projectNode) scaled() bool   { return n.in.scaled() }

// hashJoinNode is an equi-join executed as a repartition join.
type hashJoinNode struct {
	l, r         Plan
	lCols, rCols []int
}

// HashJoinP equi-joins l and r on l.lCols == r.rCols. This is the
// efficient path the SimSQL optimizer takes for plain column equality
// predicates.
func HashJoinP(l, r Plan, lCols, rCols []int) Plan {
	if len(lCols) != len(rCols) || len(lCols) == 0 {
		panic("relational: HashJoin needs matching, non-empty key lists")
	}
	return &hashJoinNode{l: l, r: r, lCols: lCols, rCols: rCols}
}

func (n *hashJoinNode) Schema() Schema { return n.l.Schema().Concat(n.r.Schema()) }
func (n *hashJoinNode) scaled() bool   { return n.l.scaled() || n.r.scaled() }

// arithJoinNode is the SimSQL optimizer quirk: a join whose predicate
// involves arithmetic (t1.curPos = t2.curPos + 1) is executed as a cross
// product with a post-filter.
type arithJoinNode struct {
	l, r Plan
	pred func(lt, rt Tuple) bool
}

// ArithJoinP joins l and r on an arbitrary predicate. The paper's SimSQL
// version could not recognize arithmetic equality predicates as
// equi-joins and fell back to a cross product; this operator reproduces
// that plan (the word-based HMM's motivation for storing nextPos).
func ArithJoinP(l, r Plan, pred func(lt, rt Tuple) bool) Plan {
	return &arithJoinNode{l: l, r: r, pred: pred}
}

func (n *arithJoinNode) Schema() Schema { return n.l.Schema().Concat(n.r.Schema()) }
func (n *arithJoinNode) scaled() bool   { return n.l.scaled() || n.r.scaled() }

// AggKind selects an aggregation function.
type AggKind uint8

const (
	// AggSum sums the column.
	AggSum AggKind = iota
	// AggCount counts rows (the column index is ignored).
	AggCount
	// AggAvg averages the column.
	AggAvg
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
)

// AggSpec is one aggregate output column. If Expr is non-nil it is
// evaluated per row instead of reading Col (a computed aggregate such as
// SUM(d1.val * d2.val)).
type AggSpec struct {
	Kind AggKind
	Col  int
	Name string
	Expr func(Tuple) float64
}

// groupAggNode is a hash-partitioned GROUP BY with map-side combine.
type groupAggNode struct {
	in      Plan
	keyCols []int
	aggs    []AggSpec
	model   bool
}

// GroupAggP groups in by keyCols and computes aggs per group. Call
// AsModelP on the result plan when the group cardinality is model-sized.
func GroupAggP(in Plan, keyCols []int, aggs []AggSpec) Plan {
	if len(aggs) == 0 {
		panic("relational: GroupAgg needs at least one aggregate")
	}
	return &groupAggNode{in: in, keyCols: keyCols, aggs: aggs}
}

func (n *groupAggNode) Schema() Schema {
	out := make(Schema, 0, len(n.keyCols)+len(n.aggs))
	in := n.in.Schema()
	for _, c := range n.keyCols {
		out = append(out, in[c])
	}
	for _, a := range n.aggs {
		out = append(out, Col{Name: a.Name, Kind: KindFloat})
	}
	return out
}
func (n *groupAggNode) scaled() bool { return !n.model && n.in.scaled() }

// modelNode marks its input's cardinality as model-proportional.
type modelNode struct{ in Plan }

// AsModelP marks the plan's output cardinality as model-proportional so
// downstream costs are not multiplied by the scale factor (use for
// aggregates keyed by cluster/state/topic ids).
func AsModelP(in Plan) Plan { return &modelNode{in: in} }

func (n *modelNode) Schema() Schema { return n.in.Schema() }
func (n *modelNode) scaled() bool   { return false }

// VG is a variable-generation function: SimSQL's randomized table-valued
// user-defined function, written (per the paper) in C++.
type VG interface {
	// Name identifies the function in traces.
	Name() string
	// OutSchema is the schema of the produced tuples.
	OutSchema() Schema
	// Apply consumes one parameter group and produces output tuples. It
	// runs under the C++ profile; implementations charge their own
	// numeric work through the meter.
	Apply(m VGMeter, params []Tuple) []Tuple
}

// vgApplyNode invokes a VG function once per parameter group.
type vgApplyNode struct {
	vg       VG
	groupCol int
	params   Plan
	model    bool
}

// VGApplyP shuffles params by groupCol and invokes vg once per distinct
// group value, concatenating the outputs. With groupCol < 0 the whole
// parameter table forms a single group (a single VG invocation).
// If model is true, the output is model-proportional.
func VGApplyP(vg VG, groupCol int, params Plan, model bool) Plan {
	return &vgApplyNode{vg: vg, groupCol: groupCol, params: params, model: model}
}

func (n *vgApplyNode) Schema() Schema { return n.vg.OutSchema() }
func (n *vgApplyNode) scaled() bool   { return !n.model && n.params.scaled() }

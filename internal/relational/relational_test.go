package relational

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mlbench/internal/sim"
)

func testEngine(machines int) *Engine {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	return NewEngine(sim.New(cfg))
}

// makeTable distributes rows round-robin over machines.
func makeTable(name string, schema Schema, machines int, scaled bool, rows ...Tuple) *Table {
	t := NewTable(name, schema, machines)
	t.Scaled = scaled
	for i, r := range rows {
		t.Parts[i%machines] = append(t.Parts[i%machines], r)
	}
	return t
}

func sortRows(rows []Tuple) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func TestSchemaHelpers(t *testing.T) {
	s := Ints("a", "b").Concat(Floats("x"))
	if len(s) != 3 || s[2].Kind != KindFloat {
		t.Fatalf("schema = %+v", s)
	}
}

func TestTupleAccessors(t *testing.T) {
	tu := T(3, 2.5)
	if tu.Int(0) != 3 || tu.Float(1) != 2.5 {
		t.Errorf("accessors wrong")
	}
	c := tu.Clone()
	c[0] = 9
	if tu[0] != 3 {
		t.Error("Clone aliases")
	}
}

func TestScan(t *testing.T) {
	e := testEngine(2)
	tbl := makeTable("d", Ints("id"), 2, true, T(1), T(2), T(3))
	got, err := e.Run("q", ScanT(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestSelectProject(t *testing.T) {
	e := testEngine(2)
	tbl := makeTable("d", Ints("id", "v"), 2, true,
		T(1, 10), T(2, 20), T(3, 30), T(4, 40))
	p := ProjectP(
		SelectP(ScanT(tbl), func(tu Tuple) bool { return tu.Int(1) >= 20 }),
		Floats("doubled"),
		func(tu, out Tuple) { out[0] = tu.Float(1) * 2 },
	)
	got, err := e.Run("q", p)
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Rows()
	sortRows(rows)
	want := []float64{40, 60, 80}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i, w := range want {
		if rows[i][0] != w {
			t.Errorf("row %d = %v, want %v", i, rows[i][0], w)
		}
	}
}

func TestHashJoin(t *testing.T) {
	e := testEngine(3)
	emp := makeTable("emp", Ints("eid", "dept"), 3, true,
		T(1, 10), T(2, 20), T(3, 10), T(4, 30))
	dept := makeTable("dept", Ints("did", "size"), 3, false,
		T(10, 100), T(20, 200))
	got, err := e.Run("q", HashJoinP(ScanT(emp), ScanT(dept), []int{1}, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Rows()
	sortRows(rows)
	if len(rows) != 3 {
		t.Fatalf("join rows = %v", rows)
	}
	// eid 1 and 3 join dept 10; eid 2 joins dept 20; eid 4 drops.
	if rows[0].Int(0) != 1 || rows[0].Int(3) != 100 {
		t.Errorf("row0 = %v", rows[0])
	}
	if rows[2].Int(0) != 3 || rows[2].Int(2) != 10 {
		t.Errorf("row2 = %v", rows[2])
	}
	if len(got.Schema) != 4 {
		t.Errorf("join schema = %v", got.Schema)
	}
}

func TestArithJoinMatchesHashJoinResult(t *testing.T) {
	// The quirk plan must be slower but produce the same rows for an
	// equality-with-arithmetic predicate.
	const n = 500
	build := func() (*Engine, *Table, *Table) {
		e := testEngine(2)
		var lRows, rRows []Tuple
		for i := 0; i < n; i++ {
			lRows = append(lRows, T(float64(i), float64(10*i)))
			rRows = append(rRows, T(float64(i+1), float64(100*i)))
		}
		l := makeTable("l", Ints("pos", "v"), 2, true, lRows...)
		r := makeTable("r", Ints("pos", "w"), 2, true, rRows...)
		return e, l, r
	}
	// Arith join: l.pos = r.pos - 1.
	e1, l1, r1 := build()
	cross, err := e1.Run("q", ArithJoinP(ScanT(l1), ScanT(r1), func(lt, rt Tuple) bool {
		return lt.Int(0) == rt.Int(0)-1
	}))
	if err != nil {
		t.Fatal(err)
	}
	crossTime := e1.c.Now()

	// Workaround: materialize nextPos = pos+1 on the left, equi-join.
	e2, l2, r2 := build()
	lNext := ProjectP(ScanT(l2), Ints("pos", "v", "nextPos"), func(tu, out Tuple) {
		out[0], out[1], out[2] = tu.Float(0), tu.Float(1), tu.Float(0)+1
	})
	equi, err := e2.Run("q", HashJoinP(lNext, ScanT(r2), []int{2}, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	equiTime := e2.c.Now()

	if cross.NumRows() != n || equi.NumRows() != n {
		t.Fatalf("cross=%d equi=%d rows, want %d", cross.NumRows(), equi.NumRows(), n)
	}
	if crossTime <= equiTime {
		t.Errorf("cross-product plan (%v) should be slower than equi-join plan (%v)", crossTime, equiTime)
	}
}

func TestGroupAgg(t *testing.T) {
	e := testEngine(3)
	tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 3, true,
		T(1, 2), T(1, 4), T(2, 10), T(2, 20), T(2, 30), T(3, 7))
	p := GroupAggP(ScanT(tbl), []int{0}, []AggSpec{
		{Kind: AggSum, Col: 1, Name: "sum"},
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggAvg, Col: 1, Name: "avg"},
		{Kind: AggMin, Col: 1, Name: "min"},
		{Kind: AggMax, Col: 1, Name: "max"},
	})
	got, err := e.Run("q", p)
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Rows()
	sortRows(rows)
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
	// Group 2: sum 60, count 3, avg 20, min 10, max 30.
	g2 := rows[1]
	if g2.Int(0) != 2 || g2[1] != 60 || g2[2] != 3 || g2[3] != 20 || g2[4] != 10 || g2[5] != 30 {
		t.Errorf("group 2 = %v", g2)
	}
	if len(got.Schema) != 6 {
		t.Errorf("schema = %v", got.Schema)
	}
}

func TestGroupAggMatchesReference(t *testing.T) {
	f := func(vals []uint8, mod uint8) bool {
		if mod == 0 {
			mod = 1
		}
		e := testEngine(2)
		rows := make([]Tuple, len(vals))
		for i, v := range vals {
			rows[i] = T(float64(v%mod), float64(v))
		}
		tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 2, true, rows...)
		got, err := e.Run("q", GroupAggP(ScanT(tbl), []int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}}))
		if err != nil {
			return false
		}
		want := map[int64]float64{}
		for _, v := range vals {
			want[int64(v%mod)] += float64(v)
		}
		if got.NumRows() != len(want) {
			return false
		}
		for _, r := range got.Rows() {
			if math.Abs(want[r.Int(0)]-r[1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// doublerVG is a VG function that emits each group's rows with values
// doubled plus a uniform draw, testing grouping and determinism.
type doublerVG struct{ addNoise bool }

func (d doublerVG) Name() string      { return "doubler" }
func (d doublerVG) OutSchema() Schema { return Schema{{"g", KindInt}, {"v", KindFloat}} }
func (d doublerVG) Apply(m VGMeter, params []Tuple) []Tuple {
	m.ChargeOps(len(params), 2, 1)
	out := make([]Tuple, len(params))
	for i, p := range params {
		v := p.Float(1) * 2
		if d.addNoise {
			v += m.RNG().Float64()
		}
		out[i] = T(p.Float(0), v)
	}
	return out
}

func TestVGApplyGrouped(t *testing.T) {
	e := testEngine(2)
	tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 2, false,
		T(1, 1), T(1, 2), T(2, 3))
	got, err := e.Run("q", VGApplyP(doublerVG{}, 0, ScanT(tbl), true))
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Rows()
	sortRows(rows)
	want := []float64{2, 4, 6}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i, r := range rows {
		if r[1] != want[i] {
			t.Errorf("row %d = %v, want %v", i, r[1], want[i])
		}
	}
}

func TestVGApplySingleGroup(t *testing.T) {
	e := testEngine(3)
	tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 3, false,
		T(1, 1), T(2, 2), T(3, 3))
	got, err := e.Run("q", VGApplyP(doublerVG{}, -1, ScanT(tbl), true))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	// Single-group apply runs on machine 0 only.
	if len(got.Parts[1])+len(got.Parts[2]) != 0 {
		t.Error("single-group VG output should live on machine 0")
	}
}

func TestVGDeterministicAcrossClusterSizes(t *testing.T) {
	run := func(machines int) []Tuple {
		e := testEngine(machines)
		rows := []Tuple{T(1, 1), T(2, 2), T(3, 3), T(4, 4)}
		tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, machines, false, rows...)
		got, err := e.Run("q", VGApplyP(doublerVG{addNoise: true}, 0, ScanT(tbl), true))
		if err != nil {
			t.Fatal(err)
		}
		out := got.Rows()
		sortRows(out)
		return out
	}
	a, b := run(2), run(5)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Errorf("row %d differs across cluster sizes: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVGIterationsGetFreshRandomness(t *testing.T) {
	e := testEngine(1)
	tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 1, false, T(1, 1))
	p := func() Plan { return VGApplyP(doublerVG{addNoise: true}, 0, ScanT(tbl), true) }
	a, err := e.Run("q1", p())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run("q2", p())
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows()[0][1] == b.Rows()[0][1] {
		t.Error("two VG invocations drew identical randomness")
	}
}

func TestWideOpsChargeMRJobLaunch(t *testing.T) {
	e := testEngine(2)
	tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 2, true, T(1, 1), T(2, 2))
	before := e.c.Now()
	if _, err := e.Run("q", GroupAggP(ScanT(tbl), []int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}})); err != nil {
		t.Fatal(err)
	}
	launch := e.c.Config().Cost.MRJobLaunch
	if got := e.c.Now() - before; got < launch {
		t.Errorf("group-by took %v, want at least the MR launch cost %v", got, launch)
	}
}

func TestNarrowOpsCheaperThanWideOps(t *testing.T) {
	e := testEngine(2)
	tbl := makeTable("d", Schema{{"g", KindInt}, {"v", KindFloat}}, 2, true, T(1, 1), T(2, 2))
	t0 := e.c.Now()
	if _, err := e.Run("narrow", SelectP(ScanT(tbl), func(Tuple) bool { return true })); err != nil {
		t.Fatal(err)
	}
	narrow := e.c.Now() - t0
	t1 := e.c.Now()
	if _, err := e.Run("wide", GroupAggP(ScanT(tbl), []int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}})); err != nil {
		t.Fatal(err)
	}
	wide := e.c.Now() - t1
	if narrow >= wide {
		t.Errorf("narrow (%v) should be cheaper than wide (%v)", narrow, wide)
	}
}

func TestKeyRefHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		k := keyOf(T(float64(i)), []int{0})
		seen[k.hash()%8] = true
	}
	if len(seen) < 6 {
		t.Errorf("sequential keys landed on only %d of 8 partitions", len(seen))
	}
}

func TestKeyLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	keyOf(T(1, 2, 3, 4, 5), []int{0, 1, 2, 3, 4})
}

func TestGroupAggGlobalGroup(t *testing.T) {
	// nil key columns form one global group.
	e := testEngine(2)
	tbl := makeTable("d", Floats("v"), 2, true, T(1), T(2), T(3))
	got, err := e.Run("q", AsModelP(GroupAggP(ScanT(tbl), nil,
		[]AggSpec{{Kind: AggSum, Col: 0, Name: "s"}, {Kind: AggCount, Name: "n"}})))
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Rows()
	if len(rows) != 1 || rows[0][0] != 6 || rows[0][1] != 3 {
		t.Errorf("global group = %v", rows)
	}
}

// A generator-backed base table and the same rows held in Parts give the
// same query result at the same virtual cost: readers cannot tell the
// two representations apart.
func TestGeneratorTableMatchesMaterialized(t *testing.T) {
	schema := Schema{{"g", KindInt}, {"v", KindFloat}}
	rows := func(part int) []Tuple {
		var out []Tuple
		for i := 0; i < 5+part; i++ {
			out = append(out, T(float64(i%3), float64(10*part+i)))
		}
		return out
	}
	mat := NewTable("d", schema, 2)
	mat.Scaled = true
	gen := &Table{Name: "d", Schema: schema, Scaled: true, GenRows: []int{5, 6},
		Gen: func(part int, yield func(Tuple)) {
			for _, r := range rows(part) {
				yield(r)
			}
		}}
	for p := range mat.Parts {
		mat.Parts[p] = rows(p)
	}
	run := func(tbl *Table) ([]Tuple, float64) {
		e := testEngine(2)
		got, err := e.Run("q", GroupAggP(SelectP(ScanT(tbl), func(tu Tuple) bool { return tu.Float(1) != 3 }),
			[]int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}, {Kind: AggCount, Name: "n"}}))
		if err != nil {
			t.Fatal(err)
		}
		out := got.Rows()
		sortRows(out)
		return out, e.c.Now()
	}
	wantRows, wantClock := run(mat)
	gotRows, gotClock := run(gen)
	if !reflect.DeepEqual(gotRows, wantRows) || gotClock != wantClock {
		t.Errorf("generator table: rows %v at %v s; materialized: rows %v at %v s", gotRows, gotClock, wantRows, wantClock)
	}
}

// AsModelP declares an output model-proportional: downstream work on it
// is charged once, not multiplied by the scale factor.
func TestAsModelPChargesUnscaled(t *testing.T) {
	run := func(model bool) float64 {
		e := testEngine(2)
		tbl := makeTable("d", Ints("g", "v"), 2, true, T(1, 1), T(2, 2), T(1, 3), T(2, 4))
		var p Plan = GroupAggP(ScanT(tbl), []int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}})
		if model {
			p = AsModelP(p)
		}
		agg, err := e.Run("agg", p)
		if err != nil {
			t.Fatal(err)
		}
		t0 := e.c.Now()
		if _, err := e.Run("next", GroupAggP(ScanT(agg), []int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}})); err != nil {
			t.Fatal(err)
		}
		return e.c.Now() - t0
	}
	if scaled, model := run(false), run(true); model >= scaled {
		t.Errorf("downstream of a model table (%v s) should be cheaper than of a scaled one (%v s)", model, scaled)
	}
}

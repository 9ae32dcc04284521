package relational

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlbench/internal/sim"
	"mlbench/internal/trace"
)

// keyPool is the key values the battery draws from: ±0 and two NaN bit
// patterns (keys compare by bits, so each is its own group), integers,
// and fractions.
var keyPool = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
	1, -1, 2, 3, 1e300, -2.5, 0.1, 7,
}

// keyedCase is one randomized run of the keyed operators.
type keyedCase struct {
	machines int
	rows     int
	keyCols  int  // 1-4
	distinct int  // > 0: draw integer keys from [0, distinct) instead of keyPool
	scaled   bool // input cardinality is data-proportional
	model    bool // GROUP BY output declared model-sized
}

// table draws a random (key..., x, y) table, rows spread unevenly.
func (c keyedCase) table(rng *rand.Rand, name string) *Table {
	schema := make(Schema, 0, c.keyCols+2)
	for i := 0; i < c.keyCols; i++ {
		schema = append(schema, Col{Name: fmt.Sprint("k", i), Kind: KindFloat})
	}
	schema = append(schema, Floats("x", "y")...)
	t := NewTable(name, schema, c.machines)
	t.Scaled = c.scaled
	for r := 0; r < c.rows; r++ {
		row := make(Tuple, 0, len(schema))
		for i := 0; i < c.keyCols; i++ {
			if c.distinct > 0 {
				row = append(row, float64(rng.Intn(c.distinct)))
			} else {
				row = append(row, keyPool[rng.Intn(len(keyPool))])
			}
		}
		row = append(row, rng.NormFloat64(), float64(rng.Intn(100)))
		p := rng.Intn(c.machines)
		if rng.Intn(4) == 0 {
			p = 0 // skew: machine 0 holds extra rows
		}
		t.Parts[p] = append(t.Parts[p], row)
	}
	return t
}

// keyedRun is everything a run exposes: result rows by partition, bit
// for bit, the clock, and the trace (task compute and network charges,
// shuffle counters), which is where the meters' send records land.
func keyedRun(machines, workers int, f func(e *Engine) ([][]Tuple, error)) string {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	cfg.HostWorkers = workers
	cfg.Tracer = trace.NewRecorder()
	e := NewEngine(sim.New(cfg))
	parts, err := f(e)
	var b strings.Builder
	fmt.Fprintf(&b, "err %v clock %x\n", err, math.Float64bits(e.c.Now()))
	for p, rows := range parts {
		for _, r := range rows {
			fmt.Fprintf(&b, "%d:", p)
			for _, v := range r {
				fmt.Fprintf(&b, " %x", math.Float64bits(v))
			}
			b.WriteByte('\n')
		}
	}
	var tr bytes.Buffer
	if err := trace.WriteCSV(&tr, cfg.Tracer); err != nil {
		panic(err)
	}
	return b.String() + tr.String() + cfg.Tracer.Metrics().Render()
}

func tableParts(t *Table, err error) ([][]Tuple, error) {
	if err != nil {
		return nil, err
	}
	return t.Parts, nil
}

// GROUP BY, the hash join and repartition must produce what the ordmap
// operators did: the same rows, bit for bit, in the same order on the
// same machines, with the same charges and sends.
func TestKeyedOperatorsMatchReference(t *testing.T) {
	aggs := []AggSpec{
		{Kind: AggSum, Col: -1, Name: "s", Expr: func(r Tuple) float64 { return r[len(r)-2] * r[len(r)-1] }},
		{Kind: AggCount, Name: "n"},
		{Kind: AggAvg, Col: -1, Name: "a", Expr: func(r Tuple) float64 { return r[len(r)-2] }},
		{Kind: AggMin, Col: -1, Name: "lo", Expr: func(r Tuple) float64 { return r[len(r)-2] }},
		{Kind: AggMax, Col: -1, Name: "hi", Expr: func(r Tuple) float64 { return r[len(r)-1] }},
	}
	var cases []keyedCase
	for keyCols := 1; keyCols <= 4; keyCols++ {
		cases = append(cases,
			keyedCase{machines: 4, rows: 300, keyCols: keyCols},
			keyedCase{machines: 7, rows: 500, keyCols: keyCols, scaled: true},
			keyedCase{machines: 3, rows: 200, keyCols: keyCols, scaled: true, model: true},
		)
	}
	// Thousands of distinct keys grow every index several times; 40
	// distinct keys over 3,000 rows collide on nearly every probe.
	cases = append(cases,
		keyedCase{machines: 5, rows: 6000, keyCols: 1, distinct: 5000, scaled: true},
		keyedCase{machines: 5, rows: 3000, keyCols: 2, distinct: 40},
		keyedCase{machines: 1, rows: 2000, keyCols: 1, distinct: 1500},
	)
	for i, c := range cases {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%d/keys%d/m%d/rows%d/workers%d", i, c.keyCols, c.machines, c.rows, workers)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				l, r := c.table(rng, "l"), c.table(rng, "r")
				cols := make([]int, c.keyCols)
				for k := range cols {
					cols[k] = k
				}
				// Join on a shuffled key order on the right, so the
				// sides' key tuples differ in layout but not in value.
				rCols := append([]int(nil), cols...)
				rng.Shuffle(len(rCols), func(a, b int) { rCols[a], rCols[b] = rCols[b], rCols[a] })
				group := func() *groupAggNode {
					n := GroupAggP(ScanT(l), cols, aggs).(*groupAggNode)
					n.model = c.model
					return n
				}
				join := HashJoinP(ScanT(l), ScanT(r), cols, rCols).(*hashJoinNode)
				for _, op := range []struct {
					name     string
					got, ref func(e *Engine) ([][]Tuple, error)
				}{
					{"groupagg",
						func(e *Engine) ([][]Tuple, error) { return tableParts(group().run(e)) },
						func(e *Engine) ([][]Tuple, error) { return tableParts(refGroupAgg(e, group())) }},
					{"hashjoin",
						func(e *Engine) ([][]Tuple, error) { return tableParts(join.run(e)) },
						func(e *Engine) ([][]Tuple, error) { return tableParts(refHashJoin(e, join)) }},
					{"repartition",
						func(e *Engine) ([][]Tuple, error) { return e.repartition("shuffle", l, cols) },
						func(e *Engine) ([][]Tuple, error) { return refRepartition(e, "shuffle", l, cols) }},
				} {
					got := keyedRun(c.machines, workers, op.got)
					want := keyedRun(c.machines, workers, op.ref)
					if got != want {
						t.Errorf("%s differs from the reference.\ngot:\n%s\nwant:\n%s", op.name, clip(got), clip(want))
					}
					if !strings.Contains(want, "\n0:") && !strings.Contains(want, "\n1:") {
						t.Errorf("%s produced no rows", op.name)
					}
				}
			})
		}
	}
}

// reusedRowGen returns a generator-backed copy of t that yields every
// row of a walk through one reused row, as gmmtask's data generator
// does: a reader that keeps a yielded row without copying it sees the
// row overwritten.
func reusedRowGen(t *Table) *Table {
	g := &Table{Name: t.Name, Schema: t.Schema, Scaled: t.Scaled, GenRows: make([]int, len(t.Parts))}
	for p, rows := range t.Parts {
		g.GenRows[p] = len(rows)
	}
	g.Gen = func(part int, yield func(Tuple)) {
		row := make(Tuple, len(t.Schema))
		for _, r := range t.Parts[part] {
			copy(row, r)
			yield(row)
		}
	}
	return g
}

// echoVG emits each parameter row with a uniform draw added to its last
// column, so parameter rows that alias one reused row show as repeats.
type echoVG struct{ schema Schema }

func (v echoVG) Name() string      { return "echo" }
func (v echoVG) OutSchema() Schema { return v.schema }
func (v echoVG) Apply(m VGMeter, params []Tuple) []Tuple {
	m.ChargeOps(len(params), 1, 1)
	out := make([]Tuple, len(params))
	for i, p := range params {
		out[i] = p.Clone()
		out[i][len(p)-1] += m.RNG().Float64()
	}
	return out
}

// Select and project views, generators that reuse one row, and the flat
// GROUP BY state must produce what the materializing operators did: the
// same rows, bit for bit, in the same order on the same machines, with
// the same clock, trace and metrics. The engine reads generators that
// yield one reused row; the reference reads the same rows materialized.
func TestViewsMatchReference(t *testing.T) {
	cases := []keyedCase{
		{machines: 4, rows: 300, keyCols: 1},
		{machines: 7, rows: 500, keyCols: 2, scaled: true},
		{machines: 3, rows: 200, keyCols: 3, scaled: true, model: true},
		{machines: 5, rows: 3000, keyCols: 1, distinct: 40, scaled: true},
		{machines: 1, rows: 400, keyCols: 2, distinct: 30, model: true},
	}
	for i, c := range cases {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%d/keys%d/m%d/rows%d/workers%d", i, c.keyCols, c.machines, c.rows, workers)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100 + i)))
				l, r := c.table(rng, "l"), c.table(rng, "r")
				gl, gr := reusedRowGen(l), reusedRowGen(r)
				if got, want := keyedRun(1, 1, func(*Engine) ([][]Tuple, error) { return [][]Tuple{gl.Rows()}, nil }),
					keyedRun(1, 1, func(*Engine) ([][]Tuple, error) { return [][]Tuple{l.Rows()}, nil }); got != want {
					t.Errorf("Rows of a reused-row generator differ.\ngot:\n%s\nwant:\n%s", clip(got), clip(want))
				}
				cols := make([]int, c.keyCols)
				for k := range cols {
					cols[k] = k
				}
				x, y := c.keyCols, c.keyCols+1
				keep := func(t Tuple) bool { return t[y] < 70 }
				mix := func(in, out Tuple) {
					copy(out, in[:x])
					out[x], out[y] = in[x]*in[y], in[x]-1
				}
				view := func(tb *Table) Plan { return ProjectP(SelectP(ScanT(tb), keep), tb.Schema, mix) }
				aggs := []AggSpec{
					{Kind: AggSum, Col: x, Name: "s"},
					{Kind: AggSum, Col: -1, Name: "se", Expr: func(t Tuple) float64 { return t[x] * t[y] }},
					{Kind: AggCount, Name: "n"},
					{Kind: AggAvg, Col: y, Name: "a"},
					{Kind: AggAvg, Col: -1, Name: "ae", Expr: func(t Tuple) float64 { return t[x] - t[y] }},
					{Kind: AggMin, Col: x, Name: "lo"},
					{Kind: AggMin, Col: -1, Name: "loe", Expr: func(t Tuple) float64 { return -t[y] }},
					{Kind: AggMax, Col: y, Name: "hi"},
					{Kind: AggMax, Col: -1, Name: "hie", Expr: func(t Tuple) float64 { return t[x] * 3 }},
				}
				group := func(in Plan) Plan {
					p := GroupAggP(in, cols, aggs)
					if c.model {
						p = AsModelP(p)
					}
					return p
				}
				type viewPlan struct {
					name  string
					build func(l, r *Table) Plan
				}
				plans := []viewPlan{
					{"hashjoin-of-generators", func(l, r *Table) Plan { return HashJoinP(ScanT(l), ScanT(r), cols, cols) }},
					{"vg-grouped-over-generator", func(l, _ *Table) Plan { return VGApplyP(echoVG{l.Schema}, 0, ScanT(l), false) }},
					{"vg-single-over-generator", func(l, _ *Table) Plan { return VGApplyP(echoVG{l.Schema}, -1, ScanT(l), false) }},
					{"groupagg-of-generator", func(l, _ *Table) Plan { return group(ScanT(l)) }},
					{"select-project-groupagg", func(l, _ *Table) Plan { return group(view(l)) }},
					{"select-groupagg", func(l, _ *Table) Plan { return group(SelectP(ScanT(l), keep)) }},
					{"view-joined-with-itself", func(l, _ *Table) Plan { v := view(l); return HashJoinP(v, v, cols, cols) }},
					{"view-into-vg", func(l, _ *Table) Plan { return VGApplyP(echoVG{l.Schema}, 0, view(l), true) }},
					{"view-at-root", func(l, _ *Table) Plan { return view(l) }},
					{"select-at-root", func(l, _ *Table) Plan { return AsModelP(SelectP(ScanT(l), keep)) }},
				}
				if c.rows <= 500 {
					plans = append(plans, viewPlan{"arithjoin-of-view", func(l, r *Table) Plan {
						return ArithJoinP(view(l), ScanT(r), func(a, b Tuple) bool { return a[0] == b[0] && a[y] < b[y] })
					}})
				}
				for _, p := range plans {
					got := keyedRun(c.machines, workers, func(e *Engine) ([][]Tuple, error) { return tableParts(e.Run("q", p.build(gl, gr))) })
					want := keyedRun(c.machines, workers, func(e *Engine) ([][]Tuple, error) { return tableParts(refRun(e, p.build(l, r))) })
					if got != want {
						t.Errorf("%s differs from the reference.\ngot:\n%s\nwant:\n%s", p.name, clip(got), clip(want))
					}
					if !strings.Contains(want, "\n0:") {
						t.Errorf("%s produced no rows on machine 0", p.name)
					}
				}
			})
		}
	}
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "..."
	}
	return s
}

// Carved pieces never share storage and appending to one copies it.
func TestCarverPiecesAreIndependent(t *testing.T) {
	var c carver
	var pieces [][]float64
	for i := 0; i < 2000; i++ {
		p := c.take(1 + i%7)
		for j := range p {
			if p[j] != 0 {
				t.Fatalf("piece %d not zeroed", i)
			}
			p[j] = float64(i)
		}
		pieces = append(pieces, p)
	}
	_ = append(pieces[0], -1)
	for i, p := range pieces {
		if len(p) != 1+i%7 || cap(p) != len(p) {
			t.Fatalf("piece %d has len %d cap %d", i, len(p), cap(p))
		}
		for _, v := range p {
			if v != float64(i) {
				t.Fatalf("piece %d was overwritten: %v", i, p)
			}
		}
	}
}

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

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "..."
	}
	return s
}

// Carved pieces never share storage and appending to one copies it.
func TestCarverPiecesAreIndependent(t *testing.T) {
	var c carver[float64]
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

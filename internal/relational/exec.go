package relational

import (
	"math"

	"mlbench/internal/ordmap"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
)

// Engine executes plans on a simulated cluster, charging SimSQL-style
// costs: one Hadoop MapReduce job per wide operator (join, group,
// VG apply), per-tuple engine overhead under the SQL profile, disk-spilled
// intermediates between jobs, and shuffle traffic. Reduce-side state
// spills to disk rather than being memory-capped, matching the paper's
// observation that SimSQL was the one platform that never failed.
type Engine struct {
	c    *sim.Cluster
	root *randgen.RNG
	seq  uint64 // distinguishes VG invocations across queries/iterations
	// recoveries counts MapReduce task re-executions after machine crashes
	// (see recover.go).
	recoveries int
}

// NewEngine creates an engine on the cluster. The engine owns crash
// recovery for its cluster — MapReduce task re-execution — and enables
// speculative execution, which caps straggler slowdown (recover.go).
func NewEngine(c *sim.Cluster) *Engine {
	e := &Engine{c: c, root: randgen.New(c.Config().Seed ^ 0x51351c1)}
	c.SetFaultHandler(e.handleFault)
	c.SetStragglerCap(c.Config().Cost.MRSpecExecCap)
	c.SetEngineLabel("simsql")
	return e
}

// ReplicateModel charges shipping model tables of the given size to every
// machine: SimSQL replicates small relations for VG parameterization.
func (e *Engine) ReplicateModel(bytes int64) error {
	n := e.machines()
	return e.c.RunPhaseF("model-replicate", func(machine int, m *sim.Meter) error {
		if n > 1 {
			m.SendModel((machine+1)%n, float64(bytes))
		}
		return nil
	})
}

// Run executes the plan and returns the materialized result table. A
// view at the plan root is copied out here, with no virtual cost: the
// select or project phase that made it was already charged.
func (e *Engine) Run(name string, p Plan) (*Table, error) {
	t, err := p.run(e)
	if err != nil {
		return nil, err
	}
	t = t.materialized()
	t.Name = name
	return t, nil
}

// machines returns the cluster's machine count.
func (e *Engine) machines() int { return e.c.NumMachines() }

// chargeRows charges per-tuple engine cost for n rows of a table with the
// given scaling.
func chargeRows(m *sim.Meter, n int, scaled bool) {
	if scaled {
		m.ChargeTuples(n)
	} else {
		m.ChargeTuplesAbs(float64(n))
	}
}

// chargeCombine charges rows absorbed by the engine's tight map-side
// combining loop.
func chargeCombine(m *sim.Meter, c *sim.Cluster, rows float64, scaled bool) {
	if scaled {
		rows *= c.Scale()
	}
	m.ChargeSec(rows * c.Config().Cost.SQLCombineSec)
}

// countShuffle records the logical shuffle volume of one map task — rows
// repartitioned and their paper-scale bytes — in the trace metrics
// registry (no cost; SendData/SendModel already charged the network).
func countShuffle(m *sim.Meter, rows int, width int, scaled bool) {
	if rows == 0 {
		return
	}
	r := float64(rows)
	bytes := r * float64(tupleBytes(width))
	if scaled {
		r *= m.Scale()
		bytes *= m.Scale()
	}
	m.Count("shuffle_rows", r)
	m.Count("shuffle_bytes", bytes)
}

// chargeDisk charges streaming n rows of the given width to/from local
// disk (Hadoop intermediates).
func chargeDisk(m *sim.Meter, c *sim.Cluster, rows int, width int, scaled bool) {
	bytes := float64(rows) * float64(tupleBytes(width))
	if scaled {
		bytes *= c.Scale()
	}
	m.ChargeSec(bytes / c.Config().Cost.DiskBytesPerSec)
}

// narrowPhase runs a per-partition transformation with per-tuple costs
// (pipelined: no job launch, no disk spill). Its output is a view: gen
// re-runs the transformation over in whenever a reader walks it, so its
// rows are never held. rows gives a partition's output row count, which
// the phase charges.
func (e *Engine) narrowPhase(name string, in *Table, outSchema Schema, scaled bool, rows func(part int) int, gen func(part int, yield func(Tuple))) (*Table, error) {
	out := &Table{Name: name, Schema: outSchema, Scaled: scaled, Gen: gen, GenRows: make([]int, e.machines())}
	err := e.c.RunPhaseF(name, func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		chargeRows(m, in.PartLen(machine), in.Scaled)
		out.GenRows[machine] = rows(machine)
		chargeRows(m, out.GenRows[machine], scaled)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (n *scanNode) run(e *Engine) (*Table, error) { return n.t, nil }

func (n *selectNode) run(e *Engine) (*Table, error) {
	in, err := n.in.run(e)
	if err != nil {
		return nil, err
	}
	gen := func(part int, yield func(Tuple)) {
		in.EachRow(part, func(t Tuple) {
			if n.pred(t) {
				yield(t)
			}
		})
	}
	count := func(part int) int {
		c := 0
		gen(part, func(Tuple) { c++ })
		return c
	}
	return e.narrowPhase("select", in, n.Schema(), n.scaled(), count, gen)
}

func (n *projectNode) run(e *Engine) (*Table, error) {
	in, err := n.in.run(e)
	if err != nil {
		return nil, err
	}
	return e.narrowPhase("project", in, n.out, n.scaled(), in.PartLen, func(part int, yield func(Tuple)) {
		row := make(Tuple, len(n.out))
		in.EachRow(part, func(t Tuple) {
			n.fn(t, row)
			yield(row)
		})
	})
}

func (n *modelNode) run(e *Engine) (*Table, error) {
	t, err := n.in.run(e)
	if err != nil {
		return nil, err
	}
	out := *t
	out.Scaled = false
	return &out, nil
}

// repartition shuffles a table by key hash, charging map-side read, disk
// spill, and network. It returns per-machine row groups. Each map task
// partitions into task-local buckets; the shared output groups are
// assembled in the Merge hooks, in machine order, so row order within a
// destination group is machine-major and worker-count-independent.
func (e *Engine) repartition(name string, in *Table, keyCols []int) ([][]Tuple, error) {
	parts := make([][]Tuple, e.machines())
	// Buckets are sparse (insertion-ordered maps, so the merge below stays
	// deterministic): a map task touches only the destinations its rows
	// hash to, which keeps the per-task footprint proportional to its row
	// count rather than to the cluster size — at 10,000 machines a dense
	// bucket array per task would cost O(machines^2) slice headers.
	locals := make([]*ordmap.Map[int, []Tuple], e.machines())
	width := len(in.Schema)
	err := e.c.RunPhaseFM(name, func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		n := in.PartLen(machine)
		chargeRows(m, n, in.Scaled)
		chargeDisk(m, e.c, n, width, in.Scaled) // read input from HDFS
		local := ordmap.New[int, []Tuple]()
		var cells carver // copies of a generator's borrowed rows
		in.EachRow(machine, func(t Tuple) {
			dst := int(keyOf(t, keyCols).hash() % uint64(e.machines()))
			bytes := float64(tupleBytes(width))
			if in.Scaled {
				m.SendData(dst, bytes)
			} else {
				m.SendModel(dst, bytes)
			}
			if in.Gen != nil {
				t = cells.clone(t)
			}
			ts, _ := local.Ref(dst)
			*ts = append(*ts, t)
		})
		countShuffle(m, n, width, in.Scaled)
		chargeDisk(m, e.c, n, width, in.Scaled) // write map output
		locals[machine] = local
		return nil
	}, func(machine int, m *sim.Meter) error {
		locals[machine].Each(func(dst int, ts []Tuple) {
			parts[dst] = append(parts[dst], ts...)
		})
		return nil
	})
	return parts, err
}

func (n *hashJoinNode) run(e *Engine) (*Table, error) {
	l, err := n.l.run(e)
	if err != nil {
		return nil, err
	}
	r, err := n.r.run(e)
	if err != nil {
		return nil, err
	}
	e.c.AdvanceNamed("mr-job-launch", e.c.Config().Cost.MRJobLaunch)
	lParts, err := e.repartition("join-shuffle-left", l, n.lCols)
	if err != nil {
		return nil, err
	}
	rParts, err := e.repartition("join-shuffle-right", r, n.rCols)
	if err != nil {
		return nil, err
	}
	out := NewTable("join", n.Schema(), e.machines())
	out.Scaled = n.scaled()
	err = e.c.RunPhaseF("join-reduce", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		// Build: index the left rows' keys, then counting-sort the rows by
		// key entry, so byKey[off[k]:off[k+1]] holds entry k's rows in row
		// order.
		lp := lParts[machine]
		var build ordmap.Map[keyRef, struct{}]
		ents := make([]int32, len(lp))
		for i, t := range lp {
			k := keyOf(t, n.lCols)
			ent, _ := build.Put(k, k.hash())
			ents[i] = int32(ent)
		}
		off := make([]int32, build.Len()+1)
		for _, ent := range ents {
			off[ent+1]++
		}
		for ent := range build.Len() {
			off[ent+1] += off[ent]
		}
		fill := append([]int32(nil), off[:build.Len()]...)
		byKey := make([]Tuple, len(lp))
		for i, ent := range ents {
			byKey[fill[ent]] = lp[i]
			fill[ent]++
		}
		chargeRows(m, len(lp), l.Scaled)
		// Build side streams through a disk-backed sort in Hadoop.
		chargeDisk(m, e.c, len(lp), len(l.Schema), l.Scaled)
		var res []Tuple
		var tuples carver
		for _, t := range rParts[machine] {
			k := keyOf(t, n.rCols)
			if ent, ok := build.Find(k, k.hash()); ok {
				for _, lt := range byKey[off[ent]:off[ent+1]] {
					joined := tuples.take(len(lt) + len(t))
					copy(joined, lt)
					copy(joined[len(lt):], t)
					res = append(res, joined)
				}
			}
		}
		chargeRows(m, len(rParts[machine]), r.Scaled)
		chargeRows(m, len(res), out.Scaled)
		chargeDisk(m, e.c, len(res), len(out.Schema), out.Scaled) // write output
		out.Parts[machine] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (n *arithJoinNode) run(e *Engine) (*Table, error) {
	l, err := n.l.run(e)
	if err != nil {
		return nil, err
	}
	r, err := n.r.run(e)
	if err != nil {
		return nil, err
	}
	e.c.AdvanceNamed("mr-job-launch", e.c.Config().Cost.MRJobLaunch)
	// Cross product: the full right side is replicated to every machine,
	// then every (left, right) pair is evaluated. This is the quirk plan;
	// its cost is quadratic in paper-scale cardinality.
	rAll := r.Rows()
	out := NewTable("crossjoin", n.Schema(), e.machines())
	out.Scaled = n.scaled()
	scale := e.c.Scale()
	err = e.c.RunPhaseF("crossjoin", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		// Pair evaluations at paper scale: (|L| x S_l) x (|R| x S_r).
		pairs := float64(l.PartLen(machine)) * float64(len(rAll))
		if l.Scaled {
			pairs *= scale
		}
		if r.Scaled {
			pairs *= scale
		}
		m.ChargeTuplesAbs(pairs)
		var res []Tuple
		l.EachRow(machine, func(lt Tuple) {
			for _, rt := range rAll {
				if n.pred(lt, rt) {
					joined := make(Tuple, 0, len(lt)+len(rt))
					joined = append(joined, lt...)
					joined = append(joined, rt...)
					res = append(res, joined)
				}
			}
		})
		chargeRows(m, len(res), out.Scaled)
		chargeDisk(m, e.c, len(res), len(out.Schema), out.Scaled)
		out.Parts[machine] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Replication traffic: every machine receives the whole right side.
	err = e.c.RunPhase("crossjoin-bcast", []sim.Task{{Machine: 0, Run: func(m *sim.Meter) error {
		rBytes := float64(len(rAll)) * float64(tupleBytes(len(r.Schema)))
		for i := 1; i < e.machines(); i++ {
			if r.Scaled {
				m.SendData(i, rBytes)
			} else {
				m.SendModel(i, rBytes)
			}
		}
		return nil
	}}})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// groupState is one task's GROUP BY state: its groups' keys, in
// first-seen order, and per group 1+len(aggs) floats in one flat slice —
// the row count, then one accumulator per aggregate (the running sum for
// Sum and Avg, the running min or max; Count's is unused).
type groupState struct {
	idx ordmap.Map[keyRef, struct{}]
	acc []float64
}

// group returns the accumulators of the group keyed k, whose hash is h;
// a new group starts as a copy of init.
func (g *groupState) group(k keyRef, h uint64, init []float64) (s []float64, found bool) {
	ent, found := g.idx.Put(k, h)
	w := len(init)
	if !found {
		g.acc = append(g.acc, init...)
	}
	return g.acc[ent*w : (ent+1)*w], found
}

// initAcc returns a new group's accumulators: no rows, zero sums, and
// the extreme bounds for Min and Max.
func initAcc(aggs []AggSpec) []float64 {
	s := make([]float64, 1+len(aggs))
	for i, a := range aggs {
		switch a.Kind {
		case AggMin:
			s[1+i] = 1e308
		case AggMax:
			s[1+i] = -1e308
		}
	}
	return s
}

// absorb folds row t into the group accumulators s.
func absorb(s []float64, t Tuple, aggs []AggSpec) {
	s[0]++
	for i, a := range aggs {
		if a.Kind == AggCount {
			continue
		}
		v := 0.0
		if a.Expr != nil {
			v = a.Expr(t)
		} else {
			v = t[a.Col]
		}
		switch a.Kind {
		case AggSum, AggAvg:
			s[1+i] += v
		case AggMin:
			if v < s[1+i] {
				s[1+i] = v
			}
		case AggMax:
			if v > s[1+i] {
				s[1+i] = v
			}
		}
	}
}

// merge folds the partial accumulators o into s.
func merge(s, o []float64, aggs []AggSpec) {
	s[0] += o[0]
	for i, a := range aggs {
		switch a.Kind {
		case AggSum, AggAvg:
			s[1+i] += o[1+i]
		case AggMin:
			if o[1+i] < s[1+i] {
				s[1+i] = o[1+i]
			}
		case AggMax:
			if o[1+i] > s[1+i] {
				s[1+i] = o[1+i]
			}
		}
	}
}

// finish writes a group's output row, its key columns then one value per
// aggregate, into out.
func finish(k keyRef, s []float64, aggs []AggSpec, out Tuple) {
	for i := range k.n {
		out[i] = math.Float64frombits(k.v[i])
	}
	out = out[k.n:]
	for i, a := range aggs {
		switch a.Kind {
		case AggCount:
			out[i] = s[0]
		case AggAvg:
			out[i] = s[1+i] / s[0]
		default:
			out[i] = s[1+i]
		}
	}
}

// partialRef names one map task's partial aggregate: the task's machine
// and the group's entry in that task's state.
type partialRef struct{ machine, ent int32 }

func (n *groupAggNode) run(e *Engine) (*Table, error) {
	in, err := n.in.run(e)
	if err != nil {
		return nil, err
	}
	e.c.AdvanceNamed("mr-job-launch", e.c.Config().Cost.MRJobLaunch)
	width, outWidth := len(in.Schema), len(n.Schema())
	init := initAcc(n.aggs)
	// Map side with combining: one partial aggregate per (machine, group).
	// Partials route to their reducers in the Merge hooks, in machine
	// order, keeping the shared per-destination lists deterministic under
	// host parallelism.
	partials := make([][]partialRef, e.machines()) // indexed by destination
	locals := make([]groupState, e.machines())
	err = e.c.RunPhaseFM("group-map", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		nRows := in.PartLen(machine)
		// GROUP BY absorbs its input through the tight combiner loop.
		chargeCombine(m, e.c, float64(nRows), in.Scaled)
		chargeDisk(m, e.c, nRows, width, in.Scaled)
		local := &locals[machine]
		in.EachRow(machine, func(t Tuple) {
			k := keyOf(t, n.keyCols)
			s, _ := local.group(k, k.hash(), init)
			absorb(s, t, n.aggs)
		})
		// One partial per group ships to its reducer. Whether those
		// partials are data- or model-proportional depends on the group
		// cardinality, which AsModelP declares.
		groups := local.idx.Entries()
		for _, g := range groups {
			dst := int(g.Hash % uint64(e.machines()))
			bytes := float64(tupleBytes(outWidth))
			if n.scaled() {
				m.SendData(dst, bytes)
			} else {
				m.SendModel(dst, bytes)
			}
		}
		countShuffle(m, len(groups), outWidth, n.scaled())
		chargeRows(m, len(groups), n.scaled())
		return nil
	}, func(machine int, m *sim.Meter) error {
		for ent, g := range locals[machine].idx.Entries() {
			dst := int(g.Hash % uint64(e.machines()))
			partials[dst] = append(partials[dst], partialRef{int32(machine), int32(ent)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := NewTable("groupagg", n.Schema(), e.machines())
	out.Scaled = n.scaled()
	w := len(init)
	err = e.c.RunPhaseF("group-reduce", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		// The first partial of each group is copied in as its
		// accumulator; later ones merge into it, in partial order.
		var merged groupState
		for _, p := range partials[machine] {
			src := &locals[p.machine]
			g := src.idx.Entries()[p.ent]
			o := src.acc[int(p.ent)*w : int(p.ent+1)*w]
			if s, found := merged.group(g.Key, g.Hash, o); found {
				merge(s, o, n.aggs)
			}
		}
		chargeRows(m, len(partials[machine]), n.scaled())
		groups := merged.idx.Entries()
		res := make([]Tuple, len(groups))
		cells := make([]float64, len(groups)*outWidth)
		for i, g := range groups {
			res[i] = cells[i*outWidth : (i+1)*outWidth : (i+1)*outWidth]
			finish(g.Key, merged.acc[i*w:(i+1)*w], n.aggs, res[i])
		}
		chargeRows(m, len(res), n.scaled())
		chargeDisk(m, e.c, len(res), len(out.Schema), n.scaled())
		out.Parts[machine] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// VGMeter is the charging interface handed to VG function
// implementations. VG functions run in C++ per the paper, so numeric work
// is charged under the C++ profile; the scaled flag tracks whether each
// invocation stands for Scale invocations at paper scale.
type VGMeter struct {
	m      *sim.Meter
	rng    *randgen.RNG
	scaled bool
}

// RNG returns the deterministic stream for this VG invocation.
func (v VGMeter) RNG() *randgen.RNG { return v.rng }

// ChargeOps charges calls linear-algebra operations of flopsPerCall flops
// at the given dimension.
func (v VGMeter) ChargeOps(calls int, flopsPerCall float64, dim int) {
	if v.scaled {
		v.m.ChargeLinalg(calls, flopsPerCall, dim)
	} else {
		v.m.ChargeLinalgAbs(calls, flopsPerCall, dim)
	}
}

// ChargeOpsData charges data-proportional linear-algebra work regardless
// of the parameter table's scaling — used by super-vertex VG functions
// whose parameter rows are model-cardinality but whose internal loops
// touch every data point.
func (v VGMeter) ChargeOpsData(calls int, flopsPerCall float64, dim int) {
	v.m.ChargeLinalg(calls, flopsPerCall, dim)
}

func (n *vgApplyNode) run(e *Engine) (*Table, error) {
	params, err := n.params.run(e)
	if err != nil {
		return nil, err
	}
	e.c.AdvanceNamed("mr-job-launch", e.c.Config().Cost.MRJobLaunch)
	e.seq++
	seq := e.seq

	var groups [][]Tuple // per machine: rows grouped contiguously
	if n.groupCol >= 0 {
		groups, err = e.repartition("vg-shuffle", params, []int{n.groupCol})
	} else {
		// Single invocation: all parameters to machine 0.
		groups = make([][]Tuple, e.machines())
		groups[0] = params.Rows()
		err = e.c.RunPhaseF("vg-gather", func(machine int, m *sim.Meter) error {
			m.SetProfile(sim.ProfileSQLEngine)
			n := params.PartLen(machine)
			chargeRows(m, n, params.Scaled)
			bytes := float64(n) * float64(tupleBytes(len(params.Schema)))
			if params.Scaled {
				m.SendData(0, bytes)
			} else {
				m.SendModel(0, bytes)
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}

	out := NewTable("vg:"+n.vg.Name(), n.Schema(), e.machines())
	out.Scaled = n.scaled()
	err = e.c.RunPhaseF("vg-apply "+n.vg.Name(), func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		rows := groups[machine]
		chargeRows(m, len(rows), params.Scaled)
		// Regroup rows by the group column (ordered, deterministic).
		byGroup := ordmap.New[uint64, []Tuple]()
		if n.groupCol >= 0 {
			for _, t := range rows {
				g, _ := byGroup.Ref(keyOf(t, []int{n.groupCol}).hash())
				*g = append(*g, t)
			}
		} else if len(rows) > 0 {
			byGroup.Set(0, rows)
		}
		var res []Tuple
		// VG functions are C++ (per the paper); their numeric work is
		// charged under the C++ profile, while tuple movement stays on
		// the engine's SQL profile.
		m.SetProfile(sim.ProfileCPP)
		byGroup.Each(func(gk uint64, group []Tuple) {
			rng := e.root.Split(seq).Split(gk)
			vm := VGMeter{m: m, rng: rng, scaled: params.Scaled}
			res = append(res, n.vg.Apply(vm, group)...)
		})
		m.SetProfile(sim.ProfileSQLEngine)
		// Output tuples are written, then re-sorted by the recursive
		// random-table versioning machinery (two more passes).
		chargeRows(m, 3*len(res), out.Scaled)
		chargeDisk(m, e.c, 3*len(res), len(out.Schema), out.Scaled)
		out.Parts[machine] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

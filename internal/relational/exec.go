package relational

import (
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

// Run executes the plan and returns the materialized result table.
func (e *Engine) Run(name string, p Plan) (*Table, error) {
	t, err := p.run(e)
	if err != nil {
		return nil, err
	}
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
// (pipelined: no job launch, no disk spill).
func (e *Engine) narrowPhase(name string, in *Table, outSchema Schema, scaled bool, fn func(Tuple, *[]Tuple)) (*Table, error) {
	out := NewTable(name, outSchema, e.machines())
	out.Scaled = scaled
	err := e.c.RunPhaseF(name, func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		chargeRows(m, in.PartLen(machine), in.Scaled)
		var res []Tuple
		in.EachRow(machine, func(t Tuple) {
			fn(t, &res)
		})
		chargeRows(m, len(res), scaled)
		out.Parts[machine] = res
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
	return e.narrowPhase("select", in, n.Schema(), n.scaled(), func(t Tuple, out *[]Tuple) {
		if n.pred(t) {
			*out = append(*out, t)
		}
	})
}

func (n *projectNode) run(e *Engine) (*Table, error) {
	in, err := n.in.run(e)
	if err != nil {
		return nil, err
	}
	return e.narrowPhase("project", in, n.out, n.scaled(), func(t Tuple, out *[]Tuple) {
		*out = append(*out, n.fn(t))
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
		in.EachRow(machine, func(t Tuple) {
			dst := int(keyOf(t, keyCols).hash() % uint64(e.machines()))
			bytes := float64(tupleBytes(width))
			if in.Scaled {
				m.SendData(dst, bytes)
			} else {
				m.SendModel(dst, bytes)
			}
			ts, _ := local.Get(dst)
			local.Set(dst, append(ts, t))
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
		build := ordmap.New[keyRef, []Tuple]()
		for _, t := range lParts[machine] {
			k := keyOf(t, n.lCols)
			old, _ := build.Get(k)
			build.Set(k, append(old, t))
		}
		chargeRows(m, len(lParts[machine]), l.Scaled)
		// Build side streams through a disk-backed sort in Hadoop.
		chargeDisk(m, e.c, len(lParts[machine]), len(l.Schema), l.Scaled)
		var res []Tuple
		for _, t := range rParts[machine] {
			k := keyOf(t, n.rCols)
			if matches, ok := build.Get(k); ok {
				for _, lt := range matches {
					joined := make(Tuple, 0, len(lt)+len(t))
					joined = append(joined, lt...)
					joined = append(joined, t...)
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

// aggState is the running state of one group's aggregates.
type aggState struct {
	count float64
	sums  []float64
	mins  []float64
	maxs  []float64
	key   Tuple
}

func newAggState(key Tuple, nAggs int) *aggState {
	s := &aggState{key: key, sums: make([]float64, nAggs), mins: make([]float64, nAggs), maxs: make([]float64, nAggs)}
	for i := range s.mins {
		s.mins[i] = 1e308
		s.maxs[i] = -1e308
	}
	return s
}

func (s *aggState) absorb(t Tuple, aggs []AggSpec) {
	s.count++
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
			s.sums[i] += v
		case AggMin:
			if v < s.mins[i] {
				s.mins[i] = v
			}
		case AggMax:
			if v > s.maxs[i] {
				s.maxs[i] = v
			}
		}
	}
}

func (s *aggState) merge(o *aggState, aggs []AggSpec) {
	s.count += o.count
	for i, a := range aggs {
		switch a.Kind {
		case AggSum, AggAvg:
			s.sums[i] += o.sums[i]
		case AggMin:
			if o.mins[i] < s.mins[i] {
				s.mins[i] = o.mins[i]
			}
		case AggMax:
			if o.maxs[i] > s.maxs[i] {
				s.maxs[i] = o.maxs[i]
			}
		}
	}
}

func (s *aggState) finish(aggs []AggSpec) Tuple {
	out := make(Tuple, 0, len(s.key)+len(aggs))
	out = append(out, s.key...)
	for i, a := range aggs {
		switch a.Kind {
		case AggSum:
			out = append(out, s.sums[i])
		case AggCount:
			out = append(out, s.count)
		case AggAvg:
			out = append(out, s.sums[i]/s.count)
		case AggMin:
			out = append(out, s.mins[i])
		case AggMax:
			out = append(out, s.maxs[i])
		}
	}
	return out
}

func (n *groupAggNode) run(e *Engine) (*Table, error) {
	in, err := n.in.run(e)
	if err != nil {
		return nil, err
	}
	e.c.AdvanceNamed("mr-job-launch", e.c.Config().Cost.MRJobLaunch)
	width := len(in.Schema)
	// Map side with combining: one partial aggregate per (machine, group).
	// Partials route to their reducers in the Merge hooks, in machine
	// order, keeping the shared per-destination lists deterministic under
	// host parallelism.
	partials := make([][]*aggState, e.machines()) // indexed by destination
	localAggs := make([]*ordmap.Map[keyRef, *aggState], e.machines())
	err = e.c.RunPhaseFM("group-map", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		nRows := in.PartLen(machine)
		// GROUP BY absorbs its input through the tight combiner loop.
		chargeCombine(m, e.c, float64(nRows), in.Scaled)
		chargeDisk(m, e.c, nRows, width, in.Scaled)
		local := ordmap.New[keyRef, *aggState]()
		in.EachRow(machine, func(t Tuple) {
			k := keyOf(t, n.keyCols)
			st := local.GetOrInsert(k, func() *aggState {
				key := make(Tuple, len(n.keyCols))
				for i, c := range n.keyCols {
					key[i] = t[c]
				}
				return newAggState(key, len(n.aggs))
			})
			st.absorb(t, n.aggs)
		})
		// One partial per group ships to its reducer. Whether those
		// partials are data- or model-proportional depends on the group
		// cardinality, which AsModelP declares.
		outWidth := len(n.Schema())
		local.Each(func(k keyRef, st *aggState) {
			dst := int(k.hash() % uint64(e.machines()))
			bytes := float64(tupleBytes(outWidth))
			if n.scaled() {
				m.SendData(dst, bytes)
			} else {
				m.SendModel(dst, bytes)
			}
		})
		countShuffle(m, local.Len(), outWidth, n.scaled())
		chargeRows(m, local.Len(), n.scaled())
		localAggs[machine] = local
		return nil
	}, func(machine int, m *sim.Meter) error {
		localAggs[machine].Each(func(k keyRef, st *aggState) {
			dst := int(k.hash() % uint64(e.machines()))
			partials[dst] = append(partials[dst], st)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := NewTable("groupagg", n.Schema(), e.machines())
	out.Scaled = n.scaled()
	err = e.c.RunPhaseF("group-reduce", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		merged := ordmap.New[keyRef, *aggState]()
		for _, st := range partials[machine] {
			k := keyOf(st.key, identityCols(len(st.key)))
			if prev, ok := merged.Get(k); ok {
				prev.merge(st, n.aggs)
			} else {
				merged.Set(k, st)
			}
		}
		chargeRows(m, len(partials[machine]), n.scaled())
		var res []Tuple
		merged.Each(func(_ keyRef, st *aggState) {
			res = append(res, st.finish(n.aggs))
		})
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

// identityCols returns [0, 1, ..., n-1].
func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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
				k := keyOf(t, []int{n.groupCol}).hash()
				old, _ := byGroup.Get(k)
				byGroup.Set(k, append(old, t))
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

package relational

import (
	"fmt"

	"mlbench/internal/ordmap"
	"mlbench/internal/sim"
)

// The operators in their first form: select and project materialize
// their output; buckets, groups and build tables are looked up by key
// through ordmap's default hash, with one state allocation per group.
// keyed_test.go checks the engine against them.

// refRun executes p with the reference operators wherever there is one
// (select, project, hash join, GROUP BY) and with the engine's own
// operators, over materialized inputs, elsewhere.
func refRun(e *Engine, p Plan) (*Table, error) {
	switch n := p.(type) {
	case *scanNode:
		return n.t, nil
	case *selectNode:
		in, err := refRun(e, n.in)
		if err != nil {
			return nil, err
		}
		return refNarrowPhase(e, "select", in, n.Schema(), n.scaled(), func(t Tuple, out *[]Tuple) {
			if n.pred(t) {
				*out = append(*out, t)
			}
		})
	case *projectNode:
		in, err := refRun(e, n.in)
		if err != nil {
			return nil, err
		}
		return refNarrowPhase(e, "project", in, n.out, n.scaled(), func(t Tuple, out *[]Tuple) {
			row := make(Tuple, len(n.out))
			n.fn(t, row)
			*out = append(*out, row)
		})
	case *modelNode:
		in, err := refRun(e, n.in)
		if err != nil {
			return nil, err
		}
		out := *in
		out.Scaled = false
		return &out, nil
	case *hashJoinNode:
		l, err := refRun(e, n.l)
		if err != nil {
			return nil, err
		}
		r, err := refRun(e, n.r)
		if err != nil {
			return nil, err
		}
		return refHashJoin(e, &hashJoinNode{l: ScanT(l), r: ScanT(r), lCols: n.lCols, rCols: n.rCols})
	case *arithJoinNode:
		l, err := refRun(e, n.l)
		if err != nil {
			return nil, err
		}
		r, err := refRun(e, n.r)
		if err != nil {
			return nil, err
		}
		return (&arithJoinNode{l: ScanT(l), r: ScanT(r), pred: n.pred}).run(e)
	case *groupAggNode:
		in, err := refRun(e, n.in)
		if err != nil {
			return nil, err
		}
		return refGroupAgg(e, &groupAggNode{in: ScanT(in), keyCols: n.keyCols, aggs: n.aggs, model: n.model})
	case *vgApplyNode:
		params, err := refRun(e, n.params)
		if err != nil {
			return nil, err
		}
		return (&vgApplyNode{vg: n.vg, groupCol: n.groupCol, params: ScanT(params), model: n.model}).run(e)
	}
	panic(fmt.Sprintf("refRun: unknown plan node %T", p))
}

// refNarrowPhase runs a per-partition transformation with per-tuple
// costs and materializes its output.
func refNarrowPhase(e *Engine, name string, in *Table, outSchema Schema, scaled bool, fn func(Tuple, *[]Tuple)) (*Table, error) {
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

func refRepartition(e *Engine, name string, in *Table, keyCols []int) ([][]Tuple, error) {
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

func refHashJoin(e *Engine, n *hashJoinNode) (*Table, error) {
	l, err := n.l.run(e)
	if err != nil {
		return nil, err
	}
	r, err := n.r.run(e)
	if err != nil {
		return nil, err
	}
	e.c.AdvanceNamed("mr-job-launch", e.c.Config().Cost.MRJobLaunch)
	lParts, err := refRepartition(e, "join-shuffle-left", l, n.lCols)
	if err != nil {
		return nil, err
	}
	rParts, err := refRepartition(e, "join-shuffle-right", r, n.rCols)
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

// refAggState is the running state of one group's aggregates.
type refAggState struct {
	count float64
	sums  []float64
	mins  []float64
	maxs  []float64
	key   Tuple
}

func newRefAggState(key Tuple, nAggs int) *refAggState {
	s := &refAggState{key: key, sums: make([]float64, nAggs), mins: make([]float64, nAggs), maxs: make([]float64, nAggs)}
	for i := range s.mins {
		s.mins[i] = 1e308
		s.maxs[i] = -1e308
	}
	return s
}

func (s *refAggState) absorb(t Tuple, aggs []AggSpec) {
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

func (s *refAggState) merge(o *refAggState, aggs []AggSpec) {
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

func (s *refAggState) finish(aggs []AggSpec) Tuple {
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

func refGroupAgg(e *Engine, n *groupAggNode) (*Table, error) {
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
	partials := make([][]*refAggState, e.machines()) // indexed by destination
	localAggs := make([]*ordmap.Map[keyRef, *refAggState], e.machines())
	err = e.c.RunPhaseFM("group-map", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		nRows := in.PartLen(machine)
		// GROUP BY absorbs its input through the tight combiner loop.
		chargeCombine(m, e.c, float64(nRows), in.Scaled)
		chargeDisk(m, e.c, nRows, width, in.Scaled)
		local := ordmap.New[keyRef, *refAggState]()
		in.EachRow(machine, func(t Tuple) {
			k := keyOf(t, n.keyCols)
			st, ok := local.Get(k)
			if !ok {
				key := make(Tuple, len(n.keyCols))
				for i, c := range n.keyCols {
					key[i] = t[c]
				}
				st = newRefAggState(key, len(n.aggs))
				local.Set(k, st)
			}
			st.absorb(t, n.aggs)
		})
		// One partial per group ships to its reducer. Whether those
		// partials are data- or model-proportional depends on the group
		// cardinality, which AsModelP declares.
		outWidth := len(n.Schema())
		local.Each(func(k keyRef, st *refAggState) {
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
		localAggs[machine].Each(func(k keyRef, st *refAggState) {
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
		merged := ordmap.New[keyRef, *refAggState]()
		for _, st := range partials[machine] {
			k := keyOf(st.key, refIdentityCols(len(st.key)))
			if prev, ok := merged.Get(k); ok {
				prev.merge(st, n.aggs)
			} else {
				merged.Set(k, st)
			}
		}
		chargeRows(m, len(partials[machine]), n.scaled())
		var res []Tuple
		merged.Each(func(_ keyRef, st *refAggState) {
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

// refIdentityCols returns [0, 1, ..., n-1].
func refIdentityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

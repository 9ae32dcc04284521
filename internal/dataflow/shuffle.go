package dataflow

import (
	"sort"

	"mlbench/internal/ordmap"
	"mlbench/internal/sim"
)

// ReduceByKey hash-shuffles the pair RDD and combines values per key with
// f. Map-side combining runs before the shuffle, as in Spark. The output
// has the same partition count and scaling as the input; call AsModel on
// the result when the key space is model-sized.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(m *sim.Meter, a, b V) V) *RDD[Pair[K, V]] {
	out := &RDD[Pair[K, V]]{
		ctx: r.ctx, parts: r.parts, scaled: r.scaled, sizer: r.sizer,
		name: r.name + ".reduceByKey", parents: []rddBase{r},
	}
	out.wide = func() error {
		return runShuffle(r, out,
			func(m *sim.Meter, dst *ordmap.Map[K, V], kv Pair[K, V]) {
				dst.Merge(kv.K, kv.V, func(old, new V) V { return f(m, old, new) })
			},
			func(m *sim.Meter, a, b V) V { return f(m, a, b) },
			func(k K, a V) int64 { return r.sizer(Pair[K, V]{K: k, V: a}) },
			pairsOf[K, V],
		)
	}
	return out
}

// pairsOf returns the map's entries in insertion order.
func pairsOf[K comparable, V any](o *ordmap.Map[K, V]) []Pair[K, V] {
	out := make([]Pair[K, V], 0, o.Len())
	o.Each(func(k K, v V) { out = append(out, Pair[K, V]{K: k, V: v}) })
	return out
}

// Two is an unkeyed tuple, used as the value type of Join results.
type Two[V, W any] struct {
	A V
	B W
}

// Join inner-joins two pair RDDs on their keys, producing every (v, w)
// combination per key. Implemented as hash shuffles of both sides with
// no map-side reduction and reducer-side buffering of both value lists —
// the pattern whose memory footprint defeated the paper's word-based HMM
// on Spark.
func Join[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]]) *RDD[Pair[K, Two[V, W]]] {
	sizer := func(p Pair[K, Two[V, W]]) int64 {
		return a.sizer(Pair[K, V]{K: p.K, V: p.V.A}) + b.sizer(Pair[K, W]{K: p.K, V: p.V.B})
	}
	out := &RDD[Pair[K, Two[V, W]]]{
		ctx: a.ctx, parts: a.parts, scaled: a.scaled || b.scaled, sizer: sizer,
		name: a.name + ".join", parents: []rddBase{a, b},
	}
	out.wide = func() error {
		c := a.ctx.cluster
		t0 := c.Now()
		c.AdvanceNamed("spark-job-launch", c.Config().Cost.SparkJobLaunch)

		type sides struct {
			left  []V
			right []W
		}
		reducers := make([]*ordmap.Map[K, *sides], out.parts)
		bufBytes := make([]int64, out.parts)
		for i := range reducers {
			reducers[i] = ordmap.New[K, *sides]()
		}
		getSides := func(o *ordmap.Map[K, *sides], k K) *sides {
			s, ok := o.Get(k)
			if !ok {
				s = &sides{}
				o.Set(k, s)
			}
			return s
		}
		scaleIf := func(bytes int64, scaled bool) int64 {
			if scaled {
				return int64(float64(bytes) * c.Scale())
			}
			return bytes
		}
		// Map side: both inputs shuffle to the same reducers. Partition
		// contents are computed (and shipping charged) task-locally; the
		// shared reducer buffers are filled in the Merge hooks, in
		// partition order, keeping them deterministic under host
		// parallelism.
		leftParts := make([][]Pair[K, V], a.parts)
		leftTasks := a.partTasks(func(p int, m *sim.Meter) error {
			in, err := a.partition(p, m)
			if err != nil {
				return err
			}
			a.chargeTuples(m, len(in))
			for _, kv := range in {
				t := int(hashKey(kv.K) % uint64(out.parts))
				shipBytes(m, a.scaled, a.ctx.machineFor(t), a.sizer(kv))
			}
			leftParts[p] = in
			return nil
		})
		for i := range leftTasks {
			p := i
			leftTasks[p].Merge = func(m *sim.Meter) error {
				for _, kv := range leftParts[p] {
					t := int(hashKey(kv.K) % uint64(out.parts))
					bufBytes[t] += scaleIf(a.sizer(kv), a.scaled)
					getSides(reducers[t], kv.K).left = append(getSides(reducers[t], kv.K).left, kv.V)
				}
				return nil
			}
		}
		err := c.RunPhase("join-map-left "+out.name, leftTasks)
		if err != nil {
			return err
		}
		rightParts := make([][]Pair[K, W], b.parts)
		rightTasks := b.partTasks(func(p int, m *sim.Meter) error {
			in, err := b.partition(p, m)
			if err != nil {
				return err
			}
			b.chargeTuples(m, len(in))
			for _, kv := range in {
				t := int(hashKey(kv.K) % uint64(out.parts))
				shipBytes(m, b.scaled, b.ctx.machineFor(t), b.sizer(kv))
			}
			rightParts[p] = in
			return nil
		})
		for i := range rightTasks {
			p := i
			rightTasks[p].Merge = func(m *sim.Meter) error {
				for _, kv := range rightParts[p] {
					t := int(hashKey(kv.K) % uint64(out.parts))
					bufBytes[t] += scaleIf(b.sizer(kv), b.scaled)
					getSides(reducers[t], kv.K).right = append(getSides(reducers[t], kv.K).right, kv.V)
				}
				return nil
			}
		}
		err = c.RunPhase("join-map-right "+out.name, rightTasks)
		if err != nil {
			return err
		}
		// Reduce side: buffer both sides in memory, emit the cross product.
		mat := make([][]Pair[K, Two[V, W]], out.parts)
		err = c.RunPhase("join-reduce "+out.name, tasksFor(out.ctx, out.parts, func(p int, m *sim.Meter) error {
			m.SetProfile(out.ctx.profile)
			if err := m.Machine().Alloc(bufBytes[p], "join buffer "+out.name); err != nil {
				return err
			}
			defer m.Machine().Free(bufBytes[p])
			var res []Pair[K, Two[V, W]]
			reducers[p].Each(func(k K, s *sides) {
				for _, v := range s.left {
					for _, w := range s.right {
						res = append(res, Pair[K, Two[V, W]]{K: k, V: Two[V, W]{A: v, B: w}})
					}
				}
			})
			out.chargeTuples(m, len(res))
			mat[p] = res
			return nil
		}))
		if err != nil {
			return err
		}
		out.mat, out.haveMat = mat, true
		out.noteMaterialized(c.Now() - t0)
		return nil
	}
	return out
}

// runShuffle is the common two-phase shuffle: map-side fold into per-target
// ordered accumulator maps with network and shuffle-file charging, then a
// reduce-side merge with transient memory accounting.
func runShuffle[K comparable, V, A, O any](
	in *RDD[Pair[K, V]],
	out *RDD[O],
	fold func(m *sim.Meter, dst *ordmap.Map[K, A], kv Pair[K, V]),
	mergeAcc func(m *sim.Meter, a, b A) A,
	accBytes func(K, A) int64,
	finish func(*ordmap.Map[K, A]) []O,
) error {
	c := in.ctx.cluster
	cost := c.Config().Cost
	t0 := c.Now()
	c.AdvanceNamed("spark-job-launch", cost.SparkJobLaunch)

	reducers := make([]*ordmap.Map[K, A], out.parts)
	partialBytes := make([]int64, out.parts) // pre-merge resident partials per reducer
	for i := range reducers {
		reducers[i] = ordmap.New[K, A]()
	}
	// Map side: compute input partitions, combine locally per target, ship.
	// The per-target combiner maps stay task-local; folding them into the
	// shared reducer maps happens in the Merge hook, sequentially in
	// partition order, so the reducers' key order (and any cost charged by
	// mergeAcc collisions) is identical at every host worker count.
	//
	// The task-local buckets are sparse: a map-side combine touches at
	// most min(|partition|, |key space|) targets, while a dense
	// per-target array per task would cost O(parts^2) host memory across
	// the phase — ruinous at the 80,000 partitions of a 10,000-machine
	// sweep. Targets are visited in ascending order (sorted keys) so the
	// ship/merge sequence is bit-identical to the dense layout's.
	locals := make([]*ordmap.Map[int, *ordmap.Map[K, A]], in.parts)
	mapTasks := in.partTasks(func(p int, m *sim.Meter) error {
		data, err := in.partition(p, m)
		if err != nil {
			return err
		}
		in.chargeTuples(m, len(data))
		local := ordmap.New[int, *ordmap.Map[K, A]]()
		for _, kv := range data {
			t := int(hashKey(kv.K) % uint64(out.parts))
			fold(m, local.GetOrInsert(t, func() *ordmap.Map[K, A] { return ordmap.New[K, A]() }), kv)
		}
		var wrote int64
		for _, t := range sortedTargets(local) {
			l, _ := local.Get(t)
			dstMachine := in.ctx.machineFor(t)
			l.Each(func(k K, a A) {
				b := accBytes(k, a)
				wrote += b
				// Post-combine partials have the output's cardinality:
				// model-sized aggregations ship unscaled partials even
				// when the input was data-proportional.
				shipBytes(m, out.scaled, dstMachine, b)
			})
		}
		// Shuffle files are written to local disk before shipping.
		diskBytes := float64(wrote)
		if out.scaled {
			diskBytes *= c.Scale()
		}
		m.ChargeSec(diskBytes / cost.DiskBytesPerSec)
		locals[p] = local
		return nil
	})
	for i := range mapTasks {
		p := i
		mapTasks[p].Merge = func(m *sim.Meter) error {
			for _, t := range sortedTargets(locals[p]) {
				l, _ := locals[p].Get(t)
				l.Each(func(k K, a A) {
					partialBytes[t] += accBytes(k, a)
					reducers[t].Merge(k, a, func(old, new A) A { return mergeAcc(m, old, new) })
				})
			}
			locals[p] = nil
			return nil
		}
	}
	err := c.RunPhase("shuffle-map "+out.name, mapTasks)
	if err != nil {
		return err
	}
	// Reduce side: transient buffer + finish.
	mat := make([][]O, out.parts)
	err = c.RunPhase("shuffle-reduce "+out.name, tasksFor(out.ctx, out.parts, func(p int, m *sim.Meter) error {
		m.SetProfile(out.ctx.profile)
		red := reducers[p]
		// The reducer buffers every received partial before merging, so
		// its footprint is the pre-merge volume (one partial per sending
		// partition per key), not the merged result.
		bufBytes := partialBytes[p]
		if out.scaled {
			bufBytes = int64(float64(bufBytes) * c.Scale())
		}
		if err := m.Machine().Alloc(bufBytes, "shuffle buffer "+out.name); err != nil {
			return err
		}
		defer m.Machine().Free(bufBytes)
		if out.scaled {
			m.ChargeTuples(red.Len())
		} else {
			m.ChargeTuplesAbs(float64(red.Len()))
		}
		mat[p] = finish(red)
		return nil
	}))
	if err != nil {
		return err
	}
	out.mat, out.haveMat = mat, true
	out.noteMaterialized(c.Now() - t0)
	return nil
}

// sortedTargets returns a bucket map's target partitions in ascending
// order, so sparse-bucket iteration charges in the same sequence a dense
// per-target array would.
func sortedTargets[V any](m *ordmap.Map[int, V]) []int {
	ts := append([]int(nil), m.Keys()...)
	sort.Ints(ts)
	return ts
}

// shipBytes records a shuffle transfer, scaled if the RDD is
// data-proportional.
func shipBytes(m *sim.Meter, scaled bool, dstMachine int, bytes int64) {
	b := float64(bytes)
	if scaled {
		m.SendData(dstMachine, b)
		b *= m.Scale()
	} else {
		m.SendModel(dstMachine, b)
	}
	m.Count("shuffle_bytes", b)
}

// tasksFor builds one task per partition for an RDD-shaped phase without
// needing the typed RDD (used for reduce-side phases of shuffles).
func tasksFor(ctx *Context, parts int, fn func(p int, m *sim.Meter) error) []sim.Task {
	tasks := make([]sim.Task, parts)
	for p := 0; p < parts; p++ {
		p := p
		tasks[p] = sim.Task{Machine: ctx.machineFor(p), Run: func(m *sim.Meter) error {
			return fn(p, m)
		}}
	}
	return tasks
}

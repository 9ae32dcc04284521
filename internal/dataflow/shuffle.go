package dataflow

import (
	"cmp"
	"slices"

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
	out.wide = func() error { return runShuffle(r, out, f) }
	return out
}

// combineInto folds v into k's value in dst with f, or inserts it. h is
// k's routing hash.
func combineInto[K comparable, V any](m *sim.Meter, dst *ordmap.Map[K, V], k K, h uint64, v V, f func(m *sim.Meter, a, b V) V) {
	i, found := dst.Put(k, h)
	e := &dst.Entries()[i]
	if found {
		e.Val = f(m, e.Val, v)
	} else {
		e.Val = v
	}
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
		reducers := make([]ordmap.Map[K, sides], out.parts)
		bufBytes := make([]int64, out.parts)
		sidesOf := func(k K, h uint64) *sides {
			o := &reducers[h%uint64(out.parts)]
			i, _ := o.Put(k, h)
			return &o.Entries()[i].Val
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
		// parallelism. Each record's key is hashed once, in its map task.
		leftParts := make([][]Pair[K, V], a.parts)
		leftHashes := make([][]uint64, a.parts)
		leftTasks := a.partTasks(func(p int, m *sim.Meter) error {
			in, err := a.partition(p, m)
			if err != nil {
				return err
			}
			a.chargeTuples(m, len(in))
			hs := make([]uint64, len(in))
			for i, kv := range in {
				hs[i] = ordmap.Hash(kv.K)
				t := int(hs[i] % uint64(out.parts))
				shipBytes(m, a.scaled, a.ctx.machineFor(t), a.sizer(kv))
			}
			leftParts[p], leftHashes[p] = in, hs
			return nil
		})
		for i := range leftTasks {
			p := i
			leftTasks[p].Merge = func(m *sim.Meter) error {
				for i, kv := range leftParts[p] {
					h := leftHashes[p][i]
					bufBytes[h%uint64(out.parts)] += scaleIf(a.sizer(kv), a.scaled)
					s := sidesOf(kv.K, h)
					s.left = append(s.left, kv.V)
				}
				return nil
			}
		}
		err := c.RunPhase("join-map-left "+out.name, leftTasks)
		if err != nil {
			return err
		}
		rightParts := make([][]Pair[K, W], b.parts)
		rightHashes := make([][]uint64, b.parts)
		rightTasks := b.partTasks(func(p int, m *sim.Meter) error {
			in, err := b.partition(p, m)
			if err != nil {
				return err
			}
			b.chargeTuples(m, len(in))
			hs := make([]uint64, len(in))
			for i, kv := range in {
				hs[i] = ordmap.Hash(kv.K)
				t := int(hs[i] % uint64(out.parts))
				shipBytes(m, b.scaled, b.ctx.machineFor(t), b.sizer(kv))
			}
			rightParts[p], rightHashes[p] = in, hs
			return nil
		})
		for i := range rightTasks {
			p := i
			rightTasks[p].Merge = func(m *sim.Meter) error {
				for i, kv := range rightParts[p] {
					h := rightHashes[p][i]
					bufBytes[h%uint64(out.parts)] += scaleIf(b.sizer(kv), b.scaled)
					s := sidesOf(kv.K, h)
					s.right = append(s.right, kv.V)
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
			for _, e := range reducers[p].Entries() {
				for _, v := range e.Val.left {
					for _, w := range e.Val.right {
						res = append(res, Pair[K, Two[V, W]]{K: e.Key, V: Two[V, W]{A: v, B: w}})
					}
				}
			}
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

// runShuffle is ReduceByKey's two-phase shuffle: map-side combine into
// per-target ordered maps with network and shuffle-file charging, then a
// reduce-side merge with transient memory accounting. Each record's key
// is hashed once: the hash that picks its target also places it in the
// target's maps.
func runShuffle[K comparable, V any](in, out *RDD[Pair[K, V]], f func(m *sim.Meter, a, b V) V) error {
	c := in.ctx.cluster
	cost := c.Config().Cost
	t0 := c.Now()
	c.AdvanceNamed("spark-job-launch", cost.SparkJobLaunch)

	reducers := make([]ordmap.Map[K, V], out.parts)
	partialBytes := make([]int64, out.parts) // pre-merge resident partials per reducer
	// Map side: compute input partitions, combine locally per target, ship.
	// The per-target combiner maps stay task-local; folding them into the
	// shared reducer maps happens in the Merge hook, sequentially in
	// partition order, so the reducers' key order (and any cost charged by
	// combining collisions) is identical at every host worker count.
	//
	// The task-local buckets are sparse: a map-side combine touches at
	// most min(|partition|, |key space|) targets, while a dense
	// per-target array per task would cost O(parts^2) host memory across
	// the phase — ruinous at the 80,000 partitions of a 10,000-machine
	// sweep. Targets are visited in ascending order so the ship/merge
	// sequence is bit-identical to the dense layout's.
	locals := make([][]ordmap.Entry[int, ordmap.Map[K, V]], in.parts)
	mapTasks := in.partTasks(func(p int, m *sim.Meter) error {
		data, err := in.partition(p, m)
		if err != nil {
			return err
		}
		in.chargeTuples(m, len(data))
		var local ordmap.Map[int, ordmap.Map[K, V]]
		for _, kv := range data {
			h := ordmap.Hash(kv.K)
			l, _ := local.Ref(int(h % uint64(out.parts)))
			combineInto(m, l, kv.K, h, kv.V, f)
		}
		buckets := slices.Clone(local.Entries())
		slices.SortFunc(buckets, func(x, y ordmap.Entry[int, ordmap.Map[K, V]]) int { return cmp.Compare(x.Key, y.Key) })
		var wrote int64
		for _, b := range buckets {
			dstMachine := in.ctx.machineFor(b.Key)
			for _, e := range b.Val.Entries() {
				n := in.sizer(Pair[K, V]{K: e.Key, V: e.Val})
				wrote += n
				// Post-combine partials have the output's cardinality:
				// model-sized aggregations ship unscaled partials even
				// when the input was data-proportional.
				shipBytes(m, out.scaled, dstMachine, n)
			}
		}
		// Shuffle files are written to local disk before shipping.
		diskBytes := float64(wrote)
		if out.scaled {
			diskBytes *= c.Scale()
		}
		m.ChargeSec(diskBytes / cost.DiskBytesPerSec)
		locals[p] = buckets
		return nil
	})
	for i := range mapTasks {
		p := i
		mapTasks[p].Merge = func(m *sim.Meter) error {
			for _, b := range locals[p] {
				for _, e := range b.Val.Entries() {
					partialBytes[b.Key] += in.sizer(Pair[K, V]{K: e.Key, V: e.Val})
					combineInto(m, &reducers[b.Key], e.Key, e.Hash, e.Val, f)
				}
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
	mat := make([][]Pair[K, V], out.parts)
	err = c.RunPhase("shuffle-reduce "+out.name, tasksFor(out.ctx, out.parts, func(p int, m *sim.Meter) error {
		m.SetProfile(out.ctx.profile)
		red := reducers[p].Entries()
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
			m.ChargeTuples(len(red))
		} else {
			m.ChargeTuplesAbs(float64(len(red)))
		}
		res := make([]Pair[K, V], len(red))
		for i, e := range red {
			res[i] = Pair[K, V]{K: e.Key, V: e.Val}
		}
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

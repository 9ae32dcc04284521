package dataflow

import (
	"mlbench/internal/sim"
)

// prepare materializes upstream shuffles and, if the RDD is persisted,
// pins its partitions per the storage level.
func (r *RDD[T]) prepare() error {
	if err := r.ensureUpstream(); err != nil {
		return err
	}
	if r.storage != StorageNone && !r.haveMat {
		return r.materializeAll()
	}
	return nil
}

// runAction executes one job: a phase computing every partition and
// passing it to fn on its machine. Partition computation runs task-local
// (possibly host-parallel); fn runs in the Merge hook, sequentially in
// partition order, because actions fold results into driver-side state.
func (r *RDD[T]) runAction(name string, fn func(p int, m *sim.Meter, data []T) error) error {
	if err := r.prepare(); err != nil {
		return err
	}
	c := r.ctx.cluster
	c.AdvanceNamed("spark-job-launch", c.Config().Cost.SparkJobLaunch)
	datas := make([][]T, r.parts)
	tasks := r.partTasks(func(p int, m *sim.Meter) error {
		data, err := r.partition(p, m)
		if err != nil {
			return err
		}
		datas[p] = data
		return nil
	})
	for i := range tasks {
		p := i
		tasks[p].Merge = func(m *sim.Meter) error { return fn(p, m, datas[p]) }
	}
	return c.RunPhase(name+" "+r.name, tasks)
}

// Collect gathers every element to the driver. The driver transiently
// holds the full simulated payload, so collecting a data-proportional RDD
// can OOM the driver exactly as it would in Spark.
func Collect[T any](r *RDD[T]) ([]T, error) {
	var out []T
	var shipped int64
	err := r.runAction("collect", func(p int, m *sim.Meter, data []T) error {
		var bytes int64
		for _, t := range data {
			bytes += r.sizer(t)
		}
		shipBytes(m, r.scaled, 0, bytes)
		if r.scaled {
			bytes = int64(float64(bytes) * r.ctx.cluster.Scale())
		}
		shipped += bytes
		out = append(out, data...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Transient driver-side residence of the collected result.
	if err := r.ctx.cluster.Machine(0).Alloc(shipped, "collect result "+r.name); err != nil {
		return nil, err
	}
	r.ctx.cluster.Machine(0).Free(shipped)
	return out, nil
}

// Count returns the number of (real, in-memory) elements. Multiply by the
// cluster scale for the simulated cardinality.
func Count[T any](r *RDD[T]) (int, error) {
	total := 0
	err := r.runAction("count", func(p int, m *sim.Meter, data []T) error {
		total += len(data)
		return nil
	})
	return total, err
}

// Aggregate folds all elements into a zero-initialized accumulator with
// seqOp per partition and merges the per-partition accumulators with
// combOp on the driver. zero is called once per partition so accumulators
// are not shared.
func Aggregate[T, U any](r *RDD[T], zero func() U, seqOp func(m *sim.Meter, acc U, t T) U, combOp func(m *sim.Meter, a, b U) U) (U, error) {
	var partials []U
	err := r.runAction("aggregate", func(p int, m *sim.Meter, data []T) error {
		r.chargeTuples(m, len(data))
		acc := zero()
		for _, t := range data {
			acc = seqOp(m, acc, t)
		}
		partials = append(partials, acc)
		return nil
	})
	var zeroU U
	if err != nil {
		return zeroU, err
	}
	res := zero()
	err = r.ctx.cluster.RunDriver("aggregate-merge "+r.name, func(m *sim.Meter) error {
		m.SetProfile(r.ctx.profile)
		for _, u := range partials {
			res = combOp(m, res, u)
		}
		return nil
	})
	return res, err
}

// CollectPairs gathers a pair RDD to the driver in deterministic
// (partition, insertion) order.
func CollectPairs[K comparable, V any](r *RDD[Pair[K, V]]) ([]Pair[K, V], error) {
	return Collect(r)
}

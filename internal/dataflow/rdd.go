// Package dataflow implements a Spark-like lazy dataflow engine on top of
// the simulated cluster: resilient distributed datasets (RDDs) with
// lineage, narrow transformations fused into single phases, hash-shuffled
// wide transformations, caching/persistence, and driver-side actions.
//
// The engine reproduces the Spark behaviours the paper's evaluation turns
// on: recomputation of uncached lineage on every action (the Gaussian
// imputation slowdown), per-record user-code overhead under a language
// Profile (Python vs Java), shuffle and driver-collect memory accounting
// (the word-based HMM self-join failure and the 100-machine LDA failures),
// and per-job scheduler launch latency.
package dataflow

import (
	"fmt"

	"mlbench/internal/randgen"
	"mlbench/internal/sim"
)

// Context owns RDDs for one driver program.
type Context struct {
	cluster *sim.Cluster
	profile sim.Profile
	// recov lists materialized RDDs in materialization order, for
	// lineage-based fault recovery (see recover.go).
	recov []recoverable
	// bcastBytes is the per-machine footprint of live broadcast variables,
	// re-shipped to a replacement executor after a crash.
	bcastBytes int64
}

// NewContext returns a driver context running user code under the given
// language profile (ProfilePython for PySpark, ProfileJava for Spark-Java).
// The context owns crash recovery for its cluster: lost partitions are
// rebuilt from lineage (recover.go).
func NewContext(c *sim.Cluster, profile sim.Profile) *Context {
	ctx := &Context{cluster: c, profile: profile}
	c.SetFaultHandler(ctx.handleFault)
	c.SetEngineLabel("spark")
	return ctx
}

// Broadcast ships a read-only value of the given simulated size to every
// machine (task closures in Spark serialize captured state to each
// executor). Distribution is pipelined machine-to-machine (like Spark's
// torrent broadcast), so the transfer time is roughly one copy of the
// value per machine rather than fan-out from the driver. The per-machine
// copies are charged and stay resident until ReleaseBroadcast.
func (ctx *Context) Broadcast(bytes int64, what string) error {
	n := ctx.cluster.NumMachines()
	err := ctx.cluster.RunPhaseF("broadcast "+what, func(machine int, m *sim.Meter) error {
		if n > 1 {
			m.SendModel((machine+1)%n, float64(bytes)) // relay ring
			m.Count("broadcast_bytes", float64(bytes))
		}
		return m.AllocModel(bytes, "broadcast: "+what)
	})
	if err == nil {
		ctx.bcastBytes += bytes
	}
	return err
}

// ReleaseBroadcast frees the per-machine copies of a broadcast value.
func (ctx *Context) ReleaseBroadcast(bytes int64) {
	for i := 0; i < ctx.cluster.NumMachines(); i++ {
		ctx.cluster.Machine(i).Free(bytes)
	}
	ctx.bcastBytes -= bytes
}

// StorageLevel selects where a persisted RDD lives, mirroring Spark's
// MEMORY_ONLY vs DISK_ONLY levels (the paper reports "forcing RDDs to
// disk" as a tuning tactic).
type StorageLevel int

const (
	// StorageNone recomputes the RDD from lineage on every action.
	StorageNone StorageLevel = iota
	// StorageMemory pins computed partitions in executor memory.
	StorageMemory
	// StorageDisk spills computed partitions to local disk; re-reads pay
	// disk bandwidth instead of recomputation.
	StorageDisk
)

// RDD is a typed, partitioned, lazily evaluated dataset.
type RDD[T any] struct {
	ctx   *Context
	parts int
	// scaled marks data-proportional cardinality: costs for scaled RDDs
	// are multiplied by the cluster's scale factor. Model-sized RDDs
	// (e.g. one element per mixture component) are unscaled.
	scaled bool
	sizer  func(T) int64
	name   string

	// compute produces partition p by pulling parents within one task.
	// It is nil for materialized sources.
	compute func(p int, m *sim.Meter) ([]T, error)
	// parents are upstream RDDs whose shuffles must be materialized first.
	parents []rddBase

	// wide is non-nil for shuffle outputs: it runs the shuffle phases and
	// fills mat.
	wide func() error

	storage   StorageLevel
	mat       [][]T   // materialized (cached or shuffled) partitions
	matBytes  []int64 // simulated bytes charged per partition (memory level)
	haveMat   bool
	isSource  bool
	sourceGen func(p int, r *randgen.RNG, m *sim.Meter) []T

	// Fault-recovery state (see recover.go): buildSec is what
	// materialization cost (the recovery basis for shuffle outputs);
	// registered guards one-time entry into the context's recovery
	// registry.
	buildSec   float64
	registered bool
}

// rddBase is the type-erased view used for lineage walks.
type rddBase interface {
	ensureUpstream() error
}

// ensureUpstream materializes, in dependency order, every unmaterialized
// wide or persisted RDD at or above r — the first action that computes a
// persisted ancestor pins it, as in Spark.
func (r *RDD[T]) ensureUpstream() error {
	for _, p := range r.parents {
		if err := p.ensureUpstream(); err != nil {
			return err
		}
	}
	if r.haveMat {
		return nil
	}
	if r.wide != nil {
		return r.wide()
	}
	if r.storage != StorageNone {
		return r.materializeAll()
	}
	return nil
}

// machineFor maps partition index to machine.
func (ctx *Context) machineFor(p int) int { return p % ctx.cluster.NumMachines() }

// SetName gives the RDD a debugging name used in phase traces.
func (r *RDD[T]) SetName(n string) *RDD[T] { r.name = n; return r }

// AsModel marks the RDD's cardinality as model-proportional: its tuple,
// byte and memory costs are not multiplied by the scale factor. Use it on
// shuffle outputs keyed by model components (cluster ids, states, topics).
func (r *RDD[T]) AsModel() *RDD[T] { r.scaled = false; return r }

// Persist sets the storage level. The first action that computes the RDD
// materializes it; later actions reuse the materialized partitions
// (memory) or re-read them from disk (disk).
func (r *RDD[T]) Persist(level StorageLevel) *RDD[T] { r.storage = level; return r }

// Cache is Persist(StorageMemory), as in Spark.
func (r *RDD[T]) Cache() *RDD[T] { return r.Persist(StorageMemory) }

// Unpersist drops materialized partitions and frees their simulated
// memory. The RDD recomputes from lineage afterwards (unless it is a
// shuffle output, which re-runs its shuffle).
func (r *RDD[T]) Unpersist() {
	if !r.haveMat {
		return
	}
	for p := range r.mat {
		if r.matBytes != nil && r.matBytes[p] > 0 {
			r.ctx.cluster.Machine(r.ctx.machineFor(p)).Free(r.matBytes[p])
		}
	}
	r.mat, r.matBytes, r.haveMat = nil, nil, false
}

// partBytes estimates the simulated bytes of a partition.
func (r *RDD[T]) partBytes(data []T) int64 {
	var b int64
	for _, t := range data {
		b += r.sizer(t)
	}
	if r.scaled {
		b = int64(float64(b) * r.ctx.cluster.Scale())
	}
	return b
}

// chargeTuples charges per-record handling for n records of this RDD.
func (r *RDD[T]) chargeTuples(m *sim.Meter, n int) {
	if r.scaled {
		m.ChargeTuples(n)
	} else {
		m.ChargeTuplesAbs(float64(n))
	}
}

// partition returns partition p, computing (and possibly persisting) it.
// Must be called inside a task running on the partition's machine, after
// ensureUpstream has materialized upstream shuffles.
func (r *RDD[T]) partition(p int, m *sim.Meter) ([]T, error) {
	if r.haveMat {
		if r.storage == StorageDisk && r.matBytes != nil {
			// Re-reading a disk-persisted partition pays disk bandwidth.
			m.ChargeSec(float64(r.matBytes[p]) / r.ctx.cluster.Config().Cost.DiskBytesPerSec)
		}
		return r.mat[p], nil
	}
	if r.compute == nil {
		return nil, fmt.Errorf("dataflow: rdd %q partition %d has no compute and no materialization", r.name, p)
	}
	data, err := r.compute(p, m)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// materializeAll runs one phase computing every partition of r and pinning
// it per its storage level. Used for Persist and by shuffles.
func (r *RDD[T]) materializeAll() error {
	if r.haveMat {
		return nil
	}
	for _, p := range r.parents {
		if err := p.ensureUpstream(); err != nil {
			return err
		}
	}
	mat := make([][]T, r.parts)
	bytes := make([]int64, r.parts)
	c := r.ctx.cluster
	t0 := c.Now()
	c.AdvanceNamed("spark-job-launch", c.Config().Cost.SparkJobLaunch)
	err := c.RunPhase("materialize "+r.name, r.partTasks(func(p int, m *sim.Meter) error {
		data, err := r.partition(p, m)
		if err != nil {
			return err
		}
		mat[p] = data
		b := r.partBytes(data)
		bytes[p] = b
		switch r.storage {
		case StorageMemory:
			if err := m.Machine().Alloc(b, "rdd cache "+r.name); err != nil {
				return err
			}
		case StorageDisk:
			m.ChargeSec(float64(b) / c.Config().Cost.DiskBytesPerSec)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	r.mat, r.matBytes, r.haveMat = mat, bytes, true
	r.noteMaterialized(c.Now() - t0)
	if r.storage == StorageNone {
		// Materialized only as a shuffle output: memory is transient
		// shuffle space, already charged by the shuffle itself.
		r.matBytes = nil
	}
	return nil
}

// partTasks builds one task per partition, pinned to its machine.
func (r *RDD[T]) partTasks(fn func(p int, m *sim.Meter) error) []sim.Task {
	tasks := make([]sim.Task, r.parts)
	for p := 0; p < r.parts; p++ {
		p := p
		tasks[p] = sim.Task{Machine: r.ctx.machineFor(p), Run: func(m *sim.Meter) error {
			m.SetProfile(r.ctx.profile)
			return fn(p, m)
		}}
	}
	return tasks
}

// Generate creates a scaled source RDD (the analogue of reading a big file
// from HDFS): partition p's contents come from gen with a deterministic
// per-partition RNG substream. The generation itself is free (the data
// "already exists"); reading it charges one pass of tuple costs.
func Generate[T any](ctx *Context, parts int, sizer func(T) int64, gen func(p int, r *randgen.RNG) []T) *RDD[T] {
	if parts <= 0 {
		panic("dataflow: Generate needs at least one partition")
	}
	r := &RDD[T]{ctx: ctx, parts: parts, scaled: true, sizer: sizer, name: "source", isSource: true}
	r.compute = func(p int, m *sim.Meter) ([]T, error) {
		data := gen(p, m.RNG().Split(uint64(p)))
		r.chargeTuples(m, len(data)) // scan/parse cost
		return data, nil
	}
	return r
}

// Map applies f to every element. f receives the task meter so user code
// can charge its own linear-algebra costs.
func Map[T, U any](r *RDD[T], sizer func(U) int64, f func(m *sim.Meter, t T) U) *RDD[U] {
	out := &RDD[U]{ctx: r.ctx, parts: r.parts, scaled: r.scaled, sizer: sizer, name: r.name + ".map", parents: []rddBase{r}}
	out.compute = func(p int, m *sim.Meter) ([]U, error) {
		in, err := r.partition(p, m)
		if err != nil {
			return nil, err
		}
		out.chargeTuples(m, len(in))
		res := make([]U, len(in))
		for i, t := range in {
			res[i] = f(m, t)
		}
		return res, nil
	}
	return out
}

// MapPartitions applies f to each whole partition, the escape hatch "super
// vertex style" Spark codes use to batch work.
func MapPartitions[T, U any](r *RDD[T], sizer func(U) int64, f func(m *sim.Meter, part []T) []U) *RDD[U] {
	out := &RDD[U]{ctx: r.ctx, parts: r.parts, scaled: r.scaled, sizer: sizer, name: r.name + ".mapPartitions", parents: []rddBase{r}}
	out.compute = func(p int, m *sim.Meter) ([]U, error) {
		in, err := r.partition(p, m)
		if err != nil {
			return nil, err
		}
		return f(m, in), nil
	}
	return out
}

// Pair is a key-value record for shuffle operations.
type Pair[K comparable, V any] struct {
	K K
	V V
}

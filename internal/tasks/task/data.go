package task

import (
	"mlbench/internal/datagen"
	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/workload"
)

// Data wires one task run's synthetic data onto a cluster: it resolves
// the run's Dataset scenario, apportions the partition over the machines
// once, and splits every machine's generator stream off one root seed.
// Every formulation of a task draws its data through it, so a scenario
// reshapes all of a task's ports alike, and the empty scenario replays
// the paper generators' draws exactly. Streamed formulations consume the
// sources chunk by chunk; formulations that hold their partition call
// Materialize.
type Data struct {
	cl     *sim.Cluster
	spec   datagen.DatasetSpec // zero value: the paper shape
	seed   uint64              // the root of every machine's stream
	base   int                 // a machine's real element count when balanced
	shares []int               // each machine's real element count; nil when balanced
}

// NewData wires a run with the given task seed and scenario name (empty:
// the paper shape) whose machines each hold paperPerMachine elements at
// paper scale, before the scenario's partition imbalance.
func NewData(cl *sim.Cluster, seed uint64, dataset string, paperPerMachine int) *Data {
	d := &Data{cl: cl, seed: seed ^ cl.Config().Seed, base: RealCount(cl, paperPerMachine)}
	if s := datagen.ScenarioSpec(dataset); s != nil {
		d.spec = *s
	}
	if p := d.spec.Partition; p != nil && p.Imbalance != 1 {
		m := cl.NumMachines()
		d.shares = datagen.PartitionCounts(d.base*m, m, p.Imbalance)
	}
	return d
}

// count returns machine's real element count.
func (d *Data) count(machine int) int {
	if d.shares == nil {
		return d.base
	}
	return d.shares[machine]
}

// Corpus streams machine's documents: cfg carries the task's corpus
// dimensions and sampler tier, the scenario the shape.
func (d *Data) Corpus(machine int, cfg workload.CorpusConfig) *sim.Source[[]int] {
	cfg = d.spec.Corpus.Shape(cfg)
	return source(d, machine, func(root *randgen.RNG) func() []int {
		return workload.OpenCorpus(root.Split(uint64(machine)), cfg)
	})
}

// Mixture streams machine's points. Every machine plants the same
// k-component, dim-dimensional mixture from the root before splitting
// its own stream off it.
func (d *Data) Mixture(machine, k, dim int) *sim.Source[linalg.Vec] {
	return source(d, machine, func(root *randgen.RNG) func() linalg.Vec {
		mix := d.spec.GMM.Plant(root, k, dim)
		return mix.Open(root.Split(uint64(machine)))
	})
}

// Regression generates machine's observations around the planted
// coefficients every machine shares.
func (d *Data) Regression(machine int, beta linalg.Vec) *workload.RegressionData {
	rng := randgen.New(d.seed).Split(uint64(machine))
	return workload.GenRegression(rng, beta, d.count(machine), d.spec.Regression.Shape())
}

// source builds machine's streamed partition; open turns a fresh root
// RNG into the machine's generator.
func source[T any](d *Data, machine int, open func(root *randgen.RNG) func() T) *sim.Source[T] {
	return sim.NewSource(d.count(machine), d.cl.ChunkElems(), func() func() T {
		return open(randgen.New(d.seed))
	})
}

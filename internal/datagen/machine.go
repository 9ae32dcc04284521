package datagen

import (
	"mlbench/internal/linalg"
	"mlbench/internal/randgen"
	"mlbench/internal/workload"
)

// This file is the bridge the task packages (internal/tasks/*) call from
// their per-machine generators: the task keeps its paper dimensions
// (vocabulary, topics, points per machine, ...) and the scenario spec
// contributes only distributional shape and partition imbalance. A nil
// spec — or a spec without the relevant section — means the historical
// generator path, which the task keeps inline so its byte stream is
// untouched.

// MachineShare returns one machine's item count under the spec's
// partition-imbalance control, given the balanced per-machine count. A
// nil spec or a balanced partition returns base unchanged.
func MachineShare(spec *DatasetSpec, machine, machines, base int) int {
	if spec == nil || spec.Partition == nil || spec.Partition.Imbalance == 1 || machines <= 1 {
		return base
	}
	return PartitionCounts(base*machines, machines, spec.Partition.Imbalance)[machine]
}

// MachineCorpus generates one machine's documents with the spec's corpus
// shape and the task's dimensions. The caller guarantees spec.Corpus is
// non-nil (it falls back to workload.GenCorpus otherwise).
func MachineCorpus(spec *DatasetSpec, rng *randgen.RNG, docs, vocab, avgLen, topics int) [][]int {
	next := OpenMachineCorpus(spec, rng, vocab, avgLen, topics)
	out := make([][]int, docs)
	for d := range out {
		out[d] = next()
	}
	return out
}

// OpenMachineCorpus is the streaming form of MachineCorpus: it returns
// a sequential document generator with the same draw pattern, for
// sim.Source-backed consumers.
func OpenMachineCorpus(spec *DatasetSpec, rng *randgen.RNG, vocab, avgLen, topics int) func() []int {
	c := spec.Corpus
	return workload.OpenCorpusSkewed(rng, workload.SkewedCorpusConfig{
		Vocab: vocab, AvgLen: avgLen, Topics: topics,
		ZipfS: c.ZipfS, TopicSkew: c.TopicSkew, Background: c.Background,
		LenDist: c.DocLen.Dist, LenSigma: c.DocLen.Sigma,
	})
}

// OpenMachineGMM streams one machine's points from the shared planted
// mixture: like the historical path, building the generator draws the
// mixture from the shared root RNG so every machine samples the same
// planted structure, then streams the machine's substream, Split off the
// root. The caller guarantees spec.GMM is non-nil.
func OpenMachineGMM(spec *DatasetSpec, root *randgen.RNG, machine, k, d int) func() linalg.Vec {
	g := spec.GMM
	mix := workload.NewPlantedMixture(root, workload.SkewedGMMConfig{
		D: d, K: k,
		Separation: g.Separation, CovCondition: g.CovCondition, Imbalance: g.Imbalance,
	})
	return workload.OpenGMMSkewedAt(root.Split(uint64(machine)), mix)
}

// MachineRegression generates one machine's observations from the shared
// planted coefficients with the spec's correlation structure. The caller
// guarantees spec.Regression is non-nil.
func MachineRegression(spec *DatasetSpec, rng *randgen.RNG, beta linalg.Vec, n int) *workload.RegressionData {
	r := spec.Regression
	return workload.GenRegressionCorrelated(rng, beta, n, r.Noise, r.Correlation)
}

// Package ldatask implements the paper's Section 8 benchmark task — the
// NON-collapsed latent Dirichlet allocation Gibbs sampler — on all five
// platform engines, in the word-based, document-based and super-vertex
// granularities of Figure 4, plus the Spark-Java variant of Figure 6 and
// the parameter-server port of fig-ps.
//
// The simulation closely resembles the HMM one, but the model that must
// be learned (100 topics x 10,000 words) is about five times larger,
// "which appears to make the task a bit more difficult, especially for
// Giraph": SimSQL ends up the only platform able to run LDA on 100
// machines and 250 million documents.
package ldatask

import (
	"mlbench/internal/models/lda"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Variant selects the granularity, as in the HMM task.
type Variant int

const (
	// VariantWord pushes every (word, z) through the platform.
	VariantWord Variant = iota
	// VariantDoc resamples a whole document per user-code invocation.
	VariantDoc
	// VariantSV blocks many documents into one platform element.
	VariantSV
)

// String names the variant as the paper's tables do.
func (v Variant) String() string {
	switch v {
	case VariantWord:
		return "word-based"
	case VariantDoc:
		return "document-based"
	default:
		return "super-vertex"
	}
}

// Config parameterizes one LDA run at paper scale.
type Config struct {
	T              int // topics (paper: 100)
	V              int // dictionary size (paper: 10,000)
	DocsPerMachine int // paper: 2.5M
	AvgDocLen      int // paper: ~210
	Iterations     int
	Variant        Variant
	SVPerMachine   int
	Seed           uint64
	// Sampler selects the token hot-path tier (dense scan, per-token
	// alias, or cached Metropolis-Hastings); the default dense tier is
	// byte-identical to the historical sampler.
	Sampler randgen.SamplerTier
	// Dataset names a datagen scenario reshaping the corpus (word/topic
	// skew, doc-length law, partition imbalance); empty is the historical
	// paper-shape generator, byte-identical to before the knob existed.
	// Validated upstream (RunSpec.Validate / datagen.ParseScenario).
	Dataset string
}

func (c Config) withDefaults() Config {
	if c.T == 0 {
		c.T = 100
	}
	if c.V == 0 {
		c.V = 10_000
	}
	if c.DocsPerMachine == 0 {
		c.DocsPerMachine = 2_500_000
	}
	if c.AvgDocLen == 0 {
		c.AvgDocLen = 210
	}
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	if c.SVPerMachine == 0 {
		c.SVPerMachine = 50
	}
	if c.Seed == 0 {
		c.Seed = 41
	}
	return c
}

// hyper returns the model hyperparameters.
func (c Config) hyper() lda.Hyper { return lda.Hyper{T: c.T, V: c.V, Alpha: 0.5, Beta: 0.1} }

// machineDocs wires the run's corpus onto the cluster (see task.Data):
// the task's dictionary and document length with T/10 planted topic
// groups. It returns each machine's streamed partition.
func machineDocs(cl *sim.Cluster, cfg Config) func(machine int) *sim.Source[[]int] {
	data := task.NewData(cl, cfg.Seed, cfg.Dataset, cfg.DocsPerMachine)
	corpus := workload.CorpusConfig{Vocab: cfg.V, AvgLen: cfg.AvgDocLen, Topics: max(cfg.T/10, 2), Sampler: cfg.Sampler}
	return func(machine int) *sim.Source[[]int] { return data.Corpus(machine, corpus) }
}

// genMachineDocs generates one machine's documents.
func genMachineDocs(cl *sim.Cluster, cfg Config, machine int) [][]int {
	return machineDocs(cl, cfg)(machine).Materialize()
}

// refreshProposals rebuilds model's mhalias proposal cache (a no-op for
// the other tiers). Every call site is a serial point — engine setup,
// driver update sections, parameter-server snapshot clones — because the
// cache is shared read-only by the concurrent resampling. A nil meter
// skips cost accounting (pre-clock setup).
func refreshProposals(cfg Config, m *sim.Meter, model *lda.Model) {
	if cfg.Sampler != randgen.TierMHAlias {
		return
	}
	if m != nil {
		m.ChargeBulkAbs(lda.ProposalFlops(cfg.T, cfg.V))
	}
	model.RefreshProposals(cfg.hyper())
}

// modelBytes is the wire size of the topic-word matrix phi.
func modelBytes(t, v int) int64 { return int64(8 * t * v) }

// countsViewBytes is the simulated size of one exported g(t, w) count set
// (48 bytes per hash-map entry, as in the HMM task).
func countsViewBytes(t, v int) int64 { return int64(48 * t * v) }

// boxedCountBytes is the per-partition aggregation payload in the given
// language runtime: counts cross the framework as boxed dictionary
// entries, not packed arrays. tokens bounds the sparse entry count.
func boxedCountBytes(p sim.Profile, t, v, tokens int) int64 {
	entries := t * v
	if tokens < entries {
		entries = tokens
	}
	per := int64(24)
	switch p.Name {
	case "python":
		per = 112
	case "java":
		per = 80
	}
	return int64(entries) * per
}

// scaleWordCounts multiplies counts to paper scale.
func scaleWordCounts(c *lda.WordCounts, scale float64) {
	for t := 0; t < c.T; t++ {
		c.G[t].ScaleInPlace(scale)
	}
}

// finalModel, when non-nil, receives every port's final model. It is the
// chain-identity test's window onto the sampler chain.
var finalModel func(*lda.Model)

// recordQuality stores the final per-word log-likelihood over machine 0's
// documents (diagnostic only).
func recordQuality(cfg Config, m *lda.Model, docs []*lda.Doc, res *task.Result) {
	if finalModel != nil {
		finalModel(m)
	}
	var ll float64
	words := 0
	for _, d := range docs {
		ll += m.LogLikelihood(d)
		words += len(d.Words)
	}
	if words > 0 {
		res.SetMetric("loglike", ll/float64(words))
	}
}

// Package hmmtask implements the paper's Section 7 benchmark task — the
// text HMM Gibbs sampler — on all five platform engines, at the three
// granularities of Figure 3: word-based (every word and hidden state is
// an element the platform manages), document-based (a document's states
// are resampled as a group in user code), and super-vertex (documents are
// blocked per machine), plus the parameter-server port of fig-ps.
package hmmtask

import (
	"mlbench/internal/models/hmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Variant selects the granularity of an HMM implementation.
type Variant int

const (
	// VariantWord pushes every (word, state) through the platform.
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

// Config parameterizes one HMM run at paper scale.
type Config struct {
	K              int // hidden states (paper: 20)
	V              int // dictionary size (paper: 10,000)
	DocsPerMachine int // paper: 2.5M
	AvgDocLen      int // paper: ~210
	Iterations     int
	Variant        Variant
	SVPerMachine   int // super vertices per machine (default 50)
	Seed           uint64
	// UseArithJoinQuirk makes the word-based SimSQL plan use the
	// optimizer's cross-product fallback instead of the stored-nextPos
	// equi-join (the Section 7.2 quirk; used by the ablation bench).
	UseArithJoinQuirk bool
	// Sampler selects the state hot-path tier (dense scan, per-position
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
	if c.K == 0 {
		c.K = 20
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
		c.Seed = 31
	}
	return c
}

// hyper returns the model hyperparameters.
func (c Config) hyper() hmm.Hyper { return hmm.Hyper{K: c.K, V: c.V, Alpha: 1, Beta: 0.5} }

// genMachineDocs generates one machine's documents (see task.Data): the
// task's dictionary and document length with K/4 planted topic groups.
func genMachineDocs(cl *sim.Cluster, cfg Config, machine int) [][]int {
	corpus := workload.CorpusConfig{Vocab: cfg.V, AvgLen: cfg.AvgDocLen, Topics: max(cfg.K/4, 2), Sampler: cfg.Sampler}
	return task.NewData(cl, cfg.Seed, cfg.Dataset, cfg.DocsPerMachine).Corpus(machine, corpus).Materialize()
}

// refreshProposals rebuilds model's mhalias proposal cache (a no-op for
// the other tiers). Every call site is a serial point — engine setup,
// driver update sections, parameter-server snapshot clones — because the
// cache is shared read-only by the concurrent resampling. A nil meter
// skips cost accounting (pre-clock setup).
func refreshProposals(cfg Config, m *sim.Meter, model *hmm.Model) {
	if cfg.Sampler != randgen.TierMHAlias {
		return
	}
	if m != nil {
		m.ChargeBulkAbs(hmm.StateProposalFlops(cfg.K, cfg.V))
	}
	model.RefreshProposals()
}

// wordsIn counts the words of a document set.
func wordsIn(docs [][]int) int {
	n := 0
	for _, d := range docs {
		n += len(d)
	}
	return n
}

// countsViewBytes is the simulated size of one exported set of f/g/h
// count statistics: roughly 48 bytes per (id, value) hash-map entry in a
// C++/Java struct — the paper's "around 10MB of data" per super vertex
// for K=20, V=10,000.
func countsViewBytes(k, v int) int64 { return int64(48 * (k*v + k*k + k)) }

// modelBytes is the wire size of the HMM model (Psi, delta, delta0).
func modelBytes(k, v int) int64 { return int64(8 * (k*v + k*k + k)) }

// finalModel, when non-nil, receives every port's final model. It is the
// chain-identity test's window onto the sampler chain.
var finalModel func(*hmm.Model)

// recordQuality stores the final joint log-likelihood per word over
// machine 0's documents with freshly drawn states (diagnostic only).
func recordQuality(cl *sim.Cluster, cfg Config, m *hmm.Model, states [][]int, docs [][]int, res *task.Result) {
	if finalModel != nil {
		finalModel(m)
	}
	var ll float64
	words := 0
	for i, doc := range docs {
		ll += m.LogLikelihood(doc, states[i])
		words += len(doc)
	}
	if words > 0 {
		res.SetMetric("loglike", ll/float64(words))
	}
}

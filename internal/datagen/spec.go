// Package datagen is the declarative synthetic-dataset generator: a
// strict-JSON (plus the internal/yamlite YAML-subset) DatasetSpec
// declares, per model family, the distributional shape the paper's fixed
// generators never exposed — vocabulary Zipf exponent, doc-length law and
// topic-prior skew for the LDA/HMM corpora; cluster separation,
// covariance conditioning and mixture imbalance for GMM; feature
// correlation structure for Lasso; power-law degree skew for graph
// layouts; and a partition-imbalance control for how any of them land on
// machines. Generation is deterministic and shard-parallel: a spec is cut
// into a fixed number of shards, each generated from its own
// Split-derived RNG, so the same spec and seed yield a byte-identical
// corpus — certified by a canonical SHA-256 fingerprint — at any worker
// count.
//
// Generation does not have generators of its own: each section maps onto
// the one internal/workload generator of its kind (shape.go), whose zero
// knobs are the paper shape. The benchmark side consumes specs through
// named scenarios (RunSpec.Dataset / task Config.Dataset), where the
// task keeps its paper dimensions and the scenario sets only the shape
// knobs, through the same mappings (internal/tasks/task.Data); the
// `mlbench gen` CLI and the datagen-smoke CI job consume full specs from
// files.
package datagen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mlbench/internal/workload"
	"mlbench/internal/yamlite"
)

// DatasetSpec declares one synthetic dataset. Every section is optional;
// a section's zero knobs mean the historical paper shape.
type DatasetSpec struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed,omitempty"` // default 1
	// Shards is the fixed generation-shard count (default 16). It is part
	// of the dataset identity: shard i always gets the same RNG stream, so
	// the fingerprint is invariant under the worker count, which only
	// controls how many shards generate concurrently.
	Shards int `json:"shards,omitempty"`

	Corpus     *CorpusSpec     `json:"corpus,omitempty"`
	GMM        *GMMSpec        `json:"gmm,omitempty"`
	Regression *RegressionSpec `json:"regression,omitempty"`
	Graph      *GraphSpec      `json:"graph,omitempty"`
	Partition  *PartitionSpec  `json:"partition,omitempty"`
}

// CorpusSpec shapes the LDA/HMM text corpus.
type CorpusSpec struct {
	Docs   int `json:"docs,omitempty"`   // default 1000
	Vocab  int `json:"vocab,omitempty"`  // default 10,000 (the paper's dictionary)
	Topics int `json:"topics,omitempty"` // default 10
	// ZipfS is the word-frequency Zipf exponent (default 1.05, the
	// historical profile).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// TopicSkew is a Zipf exponent over the planted topic priors
	// (0 = uniform, the historical draw).
	TopicSkew float64 `json:"topic_skew,omitempty"`
	// Background is the shared-vocabulary word fraction (default 0.1).
	Background float64 `json:"background,omitempty"`
	// DocLen selects the document-length law.
	DocLen DocLenSpec `json:"doc_len,omitempty"`
}

// DocLenSpec is the document-length distribution: "uniform" (the
// historical ±50% around the mean), "fixed", "poisson", or "lognormal"
// (Sigma is the log-scale shape, default 0.5).
type DocLenSpec struct {
	Dist  string  `json:"dist,omitempty"` // default "uniform"
	Mean  float64 `json:"mean,omitempty"` // default 210 (the paper's ~210 words)
	Sigma float64 `json:"sigma,omitempty"`
}

// GMMSpec shapes the clustering point cloud.
type GMMSpec struct {
	Points   int `json:"points,omitempty"`   // default 10,000
	Dim      int `json:"dim,omitempty"`      // default 10
	Clusters int `json:"clusters,omitempty"` // default 10
	// Separation is the distance scale between planted means (default 8).
	Separation float64 `json:"separation,omitempty"`
	// CovCondition is the per-cluster covariance condition number
	// (largest/smallest axis variance; default 1 = spherical).
	CovCondition float64 `json:"cov_condition,omitempty"`
	// Imbalance is a Zipf exponent over mixture weights (0 = uniform).
	Imbalance float64 `json:"imbalance,omitempty"`
}

// RegressionSpec shapes the Lasso design matrix.
type RegressionSpec struct {
	Points   int `json:"points,omitempty"`   // default 10,000
	Dim      int `json:"dim,omitempty"`      // default 1000 (the paper's p)
	Sparsity int `json:"sparsity,omitempty"` // non-zero true coefficients; default dim/20+1
	// Noise is the residual standard deviation (default 1).
	Noise float64 `json:"noise,omitempty"`
	// Correlation is the AR(1) rho between adjacent regressors, in
	// [0, 1) (0 = the independent historical design).
	Correlation float64 `json:"correlation,omitempty"`
}

// GraphSpec shapes a synthetic graph layout (degree skew is what blows up
// GAS ghost replication).
type GraphSpec struct {
	Vertices  int     `json:"vertices,omitempty"`   // default 10,000
	AvgDegree float64 `json:"avg_degree,omitempty"` // default 16
	// Exponent is the power-law degree exponent gamma > 1 (0 = regular
	// AvgDegree-degree graph). Degrees are Pareto(MinDegree, gamma-1),
	// capped at Vertices-1.
	Exponent  float64 `json:"exponent,omitempty"`
	MinDegree int     `json:"min_degree,omitempty"` // default 1 (power-law only)
}

// PartitionSpec controls how generated items land on machines: the
// max/min per-machine load ratio ramps linearly across machines, so
// Imbalance 1 is the balanced historical layout and Imbalance 8 makes the
// last machine carry 8x the first's share (the adversarial straggler
// regime).
type PartitionSpec struct {
	Machines  int     `json:"machines,omitempty"` // default 8 (standalone generation only)
	Imbalance float64 `json:"imbalance,omitempty"`
}

// ParseSpec decodes a strict-JSON DatasetSpec: unknown fields are errors.
func ParseSpec(data []byte) (DatasetSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s DatasetSpec
	if err := dec.Decode(&s); err != nil {
		return DatasetSpec{}, fmt.Errorf("datagen: parsing DatasetSpec: %w", err)
	}
	var extra any
	if dec.Decode(&extra) == nil {
		return DatasetSpec{}, fmt.Errorf("datagen: parsing DatasetSpec: trailing data after the JSON object")
	}
	return s, nil
}

// LoadSpec reads a DatasetSpec from a .yaml/.yml or .json file, parses it
// strictly, normalizes defaults, and validates it.
func LoadSpec(path string) (DatasetSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return DatasetSpec{}, fmt.Errorf("datagen: %w", err)
	}
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".yaml", ".yml":
		data, err = yamlite.ToJSON(data)
		if err != nil {
			return DatasetSpec{}, fmt.Errorf("datagen: %s: %w", path, err)
		}
	case ".json":
	default:
		return DatasetSpec{}, fmt.Errorf("datagen: %s: unsupported spec extension %q (want .yaml, .yml, or .json)", path, ext)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return DatasetSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return DatasetSpec{}, fmt.Errorf("datagen: %s: %w", path, err)
	}
	return s, nil
}

// Normalize fills defaults without mutating the receiver.
func (s DatasetSpec) Normalize() DatasetSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards == 0 {
		s.Shards = 16
	}
	if c := s.Corpus; c != nil {
		cc := *c
		if cc.Docs == 0 {
			cc.Docs = 1000
		}
		if cc.Vocab == 0 {
			cc.Vocab = 10_000
		}
		if cc.Topics == 0 {
			cc.Topics = 10
		}
		if cc.ZipfS == 0 {
			cc.ZipfS = 1.05
		}
		if cc.Background == 0 {
			cc.Background = 0.1
		}
		if cc.DocLen.Dist == "" {
			cc.DocLen.Dist = workload.LenUniform
		}
		if cc.DocLen.Mean == 0 {
			cc.DocLen.Mean = 210
		}
		if cc.DocLen.Sigma == 0 {
			cc.DocLen.Sigma = 0.5
		}
		s.Corpus = &cc
	}
	if g := s.GMM; g != nil {
		gg := *g
		if gg.Points == 0 {
			gg.Points = 10_000
		}
		if gg.Dim == 0 {
			gg.Dim = 10
		}
		if gg.Clusters == 0 {
			gg.Clusters = 10
		}
		if gg.Separation == 0 {
			gg.Separation = 8
		}
		if gg.CovCondition == 0 {
			gg.CovCondition = 1
		}
		s.GMM = &gg
	}
	if r := s.Regression; r != nil {
		rr := *r
		if rr.Points == 0 {
			rr.Points = 10_000
		}
		if rr.Dim == 0 {
			rr.Dim = 1000
		}
		if rr.Sparsity == 0 {
			rr.Sparsity = rr.Dim/20 + 1
		}
		if rr.Noise == 0 {
			rr.Noise = 1
		}
		s.Regression = &rr
	}
	if g := s.Graph; g != nil {
		gg := *g
		if gg.Vertices == 0 {
			gg.Vertices = 10_000
		}
		if gg.AvgDegree == 0 {
			gg.AvgDegree = 16
		}
		if gg.Exponent != 0 && gg.MinDegree == 0 {
			gg.MinDegree = 1
		}
		s.Graph = &gg
	}
	if p := s.Partition; p != nil {
		pp := *p
		if pp.Machines == 0 {
			pp.Machines = 8
		}
		if pp.Imbalance == 0 {
			pp.Imbalance = 1
		}
		s.Partition = &pp
	}
	return s
}

// Validate checks a normalized spec; errors name the offending field and
// the accepted range.
func (s DatasetSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: name is required")
	}
	if s.Shards < 1 || s.Shards > 4096 {
		return fmt.Errorf("spec %s: shards = %d, want 1..4096", s.Name, s.Shards)
	}
	if s.Corpus == nil && s.GMM == nil && s.Regression == nil && s.Graph == nil && s.Partition == nil {
		// A partition-only spec is valid: it reshapes how the historical
		// generators' data lands on machines (the imbal-* scenarios).
		return fmt.Errorf("spec %s: declares no sections (want at least one of corpus, gmm, regression, graph, partition)", s.Name)
	}
	if c := s.Corpus; c != nil {
		if c.Docs < 1 || c.Vocab < 2 || c.Topics < 1 {
			return fmt.Errorf("spec %s: corpus docs/vocab/topics = %d/%d/%d, want >= 1/2/1", s.Name, c.Docs, c.Vocab, c.Topics)
		}
		if c.ZipfS <= 0 || c.TopicSkew < 0 || c.Background < 0 || c.Background >= 1 {
			return fmt.Errorf("spec %s: corpus zipf_s = %v (want > 0), topic_skew = %v (want >= 0), background = %v (want [0, 1))",
				s.Name, c.ZipfS, c.TopicSkew, c.Background)
		}
		switch c.DocLen.Dist {
		case workload.LenUniform, workload.LenFixed, workload.LenPoisson, workload.LenLognormal:
		default:
			return fmt.Errorf("spec %s: corpus doc_len.dist = %q, want one of uniform, fixed, poisson, lognormal",
				s.Name, c.DocLen.Dist)
		}
		if c.DocLen.Mean < 2 || c.DocLen.Sigma <= 0 {
			return fmt.Errorf("spec %s: corpus doc_len mean = %v (want >= 2), sigma = %v (want > 0)",
				s.Name, c.DocLen.Mean, c.DocLen.Sigma)
		}
	}
	if g := s.GMM; g != nil {
		if g.Points < 1 || g.Dim < 1 || g.Clusters < 1 {
			return fmt.Errorf("spec %s: gmm points/dim/clusters = %d/%d/%d, want >= 1", s.Name, g.Points, g.Dim, g.Clusters)
		}
		if g.Separation <= 0 || g.CovCondition < 1 || g.Imbalance < 0 {
			return fmt.Errorf("spec %s: gmm separation = %v (want > 0), cov_condition = %v (want >= 1), imbalance = %v (want >= 0)",
				s.Name, g.Separation, g.CovCondition, g.Imbalance)
		}
	}
	if r := s.Regression; r != nil {
		if r.Points < 1 || r.Dim < 1 || r.Sparsity < 1 || r.Sparsity > r.Dim {
			return fmt.Errorf("spec %s: regression points/dim/sparsity = %d/%d/%d, want points, dim >= 1 and 1 <= sparsity <= dim",
				s.Name, r.Points, r.Dim, r.Sparsity)
		}
		if r.Noise <= 0 || r.Correlation < 0 || r.Correlation >= 1 {
			return fmt.Errorf("spec %s: regression noise = %v (want > 0), correlation = %v (want [0, 1))",
				s.Name, r.Noise, r.Correlation)
		}
	}
	if g := s.Graph; g != nil {
		if g.Vertices < 2 || g.AvgDegree < 1 {
			return fmt.Errorf("spec %s: graph vertices = %d (want >= 2), avg_degree = %v (want >= 1)", s.Name, g.Vertices, g.AvgDegree)
		}
		if g.Exponent != 0 && (g.Exponent <= 1 || g.MinDegree < 1) {
			return fmt.Errorf("spec %s: graph exponent = %v (want > 1, or 0 for a regular graph), min_degree = %d (want >= 1)",
				s.Name, g.Exponent, g.MinDegree)
		}
	}
	if p := s.Partition; p != nil {
		if p.Machines < 1 || p.Imbalance < 1 {
			return fmt.Errorf("spec %s: partition machines = %d (want >= 1), imbalance = %v (want >= 1)", s.Name, p.Machines, p.Imbalance)
		}
	}
	return nil
}

package datagen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlbench/internal/workload"
)

func TestLoadSpecSmokeYAML(t *testing.T) {
	s, err := LoadSpec(filepath.Join("..", "..", "datasets", "smoke.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "datagen-smoke" || s.Seed != 42 || s.Shards != 16 {
		t.Fatalf("header: %+v", s)
	}
	if s.Corpus == nil || s.Corpus.Docs != 400 || s.Corpus.ZipfS != 1.4 ||
		s.Corpus.DocLen.Dist != workload.LenLognormal || s.Corpus.DocLen.Mean != 120 {
		t.Fatalf("corpus: %+v", s.Corpus)
	}
	if s.GMM == nil || s.GMM.CovCondition != 8 || s.GMM.Imbalance != 1.2 {
		t.Fatalf("gmm: %+v", s.GMM)
	}
	if s.Regression == nil || s.Regression.Correlation != 0.6 || s.Regression.Sparsity != 4 {
		t.Fatalf("regression: %+v", s.Regression)
	}
	if s.Graph == nil || s.Graph.Exponent != 2.3 || s.Graph.MinDegree != 2 {
		t.Fatalf("graph: %+v", s.Graph)
	}
	if s.Partition == nil || s.Partition.Machines != 8 || s.Partition.Imbalance != 4 {
		t.Fatalf("partition: %+v", s.Partition)
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := DatasetSpec{Name: "d", Corpus: &CorpusSpec{}}.Normalize()
	if s.Seed != 1 || s.Shards != 16 {
		t.Fatalf("header defaults: %+v", s)
	}
	c := s.Corpus
	if c.Docs != 1000 || c.Vocab != 10_000 || c.Topics != 10 || c.ZipfS != 1.05 ||
		c.Background != 0.1 || c.DocLen.Dist != workload.LenUniform || c.DocLen.Mean != 210 {
		t.Fatalf("corpus defaults: %+v", c)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("normalized spec invalid: %v", err)
	}
}

func TestSpecValidateActionable(t *testing.T) {
	base := func() DatasetSpec {
		return DatasetSpec{Name: "d", Corpus: &CorpusSpec{}}.Normalize()
	}
	cases := []struct {
		name string
		mut  func(*DatasetSpec)
		want string
	}{
		{"no name", func(s *DatasetSpec) { s.Name = "" }, "name is required"},
		{"no sections", func(s *DatasetSpec) { s.Corpus = nil }, "no sections"},
		{"bad shards", func(s *DatasetSpec) { s.Shards = 9999 }, "shards"},
		{"bad doc_len dist", func(s *DatasetSpec) { s.Corpus.DocLen.Dist = "cauchy" }, "doc_len.dist"},
		{"bad background", func(s *DatasetSpec) { s.Corpus.Background = 1.5 }, "background"},
		{"bad zipf", func(s *DatasetSpec) { s.Corpus.ZipfS = -1 }, "zipf_s"},
		{"bad gmm cond", func(s *DatasetSpec) {
			s.GMM = &GMMSpec{Points: 1, Dim: 1, Clusters: 1, Separation: 8, CovCondition: 0.5}
		}, "cov_condition"},
		{"bad correlation", func(s *DatasetSpec) {
			s.Regression = &RegressionSpec{Points: 1, Dim: 4, Sparsity: 1, Noise: 1, Correlation: 1}
		}, "correlation"},
		{"bad graph exponent", func(s *DatasetSpec) {
			s.Graph = &GraphSpec{Vertices: 10, AvgDegree: 2, Exponent: 0.5, MinDegree: 1}
		}, "exponent"},
		{"bad partition", func(s *DatasetSpec) {
			s.Partition = &PartitionSpec{Machines: 4, Imbalance: 0.5}
		}, "imbalance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("accepted %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name": "x", "vocabulary": 5}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"name": "x"} {"name": "y"}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestLoadSpecRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadSpec(write("x.toml", "")); err == nil ||
		!strings.Contains(err.Error(), "unsupported spec extension") {
		t.Fatalf("extension error: %v", err)
	}
	if _, err := LoadSpec(write("x.yaml", "name: t\nvocabulary: 5")); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadSpec(write("y.yaml", "name: t")); err == nil ||
		!strings.Contains(err.Error(), "no sections") {
		t.Fatalf("sectionless spec: %v", err)
	}
	if _, err := LoadSpec(write("z.yaml", "a:\n\tb: 1")); err == nil ||
		!strings.Contains(err.Error(), "tabs are not allowed") {
		t.Fatalf("yamlite error not surfaced: %v", err)
	}
}

func TestScenarios(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 4 {
		t.Fatalf("scenarios: %v", names)
	}
	for _, name := range names {
		s := ScenarioSpec(name)
		if s == nil {
			t.Fatalf("ScenarioSpec(%q) = nil", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", name, err)
		}
		if err := ParseScenario(name); err != nil {
			t.Errorf("ParseScenario(%s): %v", name, err)
		}
	}
	if ScenarioSpec("") != nil {
		t.Error("empty scenario should resolve to nil (the historical shape)")
	}
	if err := ParseScenario(""); err != nil {
		t.Errorf("empty scenario: %v", err)
	}
	err := ParseScenario("skew-hevy")
	if err == nil {
		t.Fatal("typo accepted")
	}
	if !strings.Contains(err.Error(), "skew-heavy") || !strings.Contains(err.Error(), "imbal-8x") {
		t.Errorf("error %q does not list the valid names", err)
	}
	// The skew pair reshapes distributions on balanced partitions; the
	// imbal pair does the opposite.
	for _, name := range []string{"skew-light", "skew-heavy"} {
		if s := ScenarioSpec(name); s.Partition != nil || s.Corpus == nil {
			t.Errorf("%s: want corpus shape and no partition section: %+v", name, s)
		}
	}
	for _, name := range []string{"imbal-2x", "imbal-8x"} {
		if s := ScenarioSpec(name); s.Partition == nil || s.Corpus != nil {
			t.Errorf("%s: want a partition section only: %+v", name, s)
		}
	}
}

// A name that strconv would read as a float (nan, Inf) is a string in a
// spec file, not a JSON marshal error without a line number.
func TestLoadSpecNonFiniteLookingName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.yaml")
	if err := os.WriteFile(path, []byte("name: nan\ncorpus:\n  docs: 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "nan" {
		t.Fatalf("Name = %q, want nan", s.Name)
	}
}

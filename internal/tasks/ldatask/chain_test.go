package ldatask

import (
	"flag"
	"testing"

	"mlbench/internal/models/lda"
	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins each port's sampler chain: the SHA-256 of the
// final phi bits after two iterations at tiny scale. The virtual-clock
// goldens would not notice a changed chain. The non-integer scale makes
// every weighted count a non-integer sum, so re-associating any count
// addition changes the digest.
func TestChainIdentity(t *testing.T) {
	cfg := Config{T: 6, V: 120, DocsPerMachine: 270_000, AvgDocLen: 40, Iterations: 2, Seed: 19, SVPerMachine: 4}
	py, java := sim.ProfilePython, sim.ProfileJava
	ports := []struct {
		name string
		run  func(cl *sim.Cluster) (*task.Result, error)
	}{
		{"giraph/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunGiraph(cl, cfg, VariantSV) }},
		{"graphlab/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunGraphLab(cl, cfg) }},
		{"ps/s0", func(cl *sim.Cluster) (*task.Result, error) { return RunPS(cl, cfg, psengine.Config{}) }},
		{"ps/s1", func(cl *sim.Cluster) (*task.Result, error) { return RunPS(cl, cfg, psengine.Config{Staleness: 1}) }},
		{"spark-python/document-based", func(cl *sim.Cluster) (*task.Result, error) { return RunSpark(cl, cfg, VariantDoc, py) }},
		{"spark-java/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunSpark(cl, cfg, VariantSV, java) }},
		{"simsql/document-based", func(cl *sim.Cluster) (*task.Result, error) { return RunSimSQL(cl, cfg, VariantDoc) }},
		{"scale/spark", func(cl *sim.Cluster) (*task.Result, error) { return RunScaleSpark(cl, cfg, py) }},
		{"scale/giraph", func(cl *sim.Cluster) (*task.Result, error) { return RunScaleGiraph(cl, cfg) }},
		{"scale/graphlab", func(cl *sim.Cluster) (*task.Result, error) { return RunScaleGraphLab(cl, cfg) }},
		{"scale/ps", func(cl *sim.Cluster) (*task.Result, error) { return RunScalePS(cl, cfg, psengine.Config{}) }},
		{"scale/simsql", func(cl *sim.Cluster) (*task.Result, error) { return RunScaleSimSQL(cl, cfg) }},
	}
	var got []string
	for _, p := range ports {
		var final *lda.Model
		finalModel = func(m *lda.Model) { final = m }
		c := sim.DefaultConfig(3)
		c.Scale = 1000 / 0.15
		_, err := p.run(sim.New(c))
		finalModel = nil
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if final == nil {
			t.Fatalf("%s: no final model", p.name)
		}
		got = append(got, p.name+" "+tasktest.Digest(final.Phi...))
	}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

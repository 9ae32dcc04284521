package hmmtask

import (
	"flag"
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/models/hmm"
	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins each port's sampler chain: the SHA-256 of the
// final model's Delta0, Delta and Psi bits after two iterations at tiny
// scale. The virtual-clock goldens would not notice a changed chain. The
// non-integer scale makes every weighted count a non-integer sum, so
// re-associating any count addition changes the digest.
func TestChainIdentity(t *testing.T) {
	cfg := Config{K: 4, V: 100, DocsPerMachine: 270_000, AvgDocLen: 40, Iterations: 2, Seed: 13, SVPerMachine: 4}
	ports := []struct {
		name string
		run  func(cl *sim.Cluster) (*task.Result, error)
	}{
		{"giraph/document-based", func(cl *sim.Cluster) (*task.Result, error) { return RunGiraph(cl, cfg, VariantDoc) }},
		{"giraph/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunGiraph(cl, cfg, VariantSV) }},
		{"graphlab/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunGraphLab(cl, cfg) }},
		{"ps/s0", func(cl *sim.Cluster) (*task.Result, error) { return RunPS(cl, cfg, psengine.Config{}) }},
		{"ps/s1", func(cl *sim.Cluster) (*task.Result, error) { return RunPS(cl, cfg, psengine.Config{Staleness: 1}) }},
		{"spark/document-based", func(cl *sim.Cluster) (*task.Result, error) { return RunSpark(cl, cfg, VariantDoc) }},
		{"spark/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunSpark(cl, cfg, VariantSV) }},
		{"simsql/document-based", func(cl *sim.Cluster) (*task.Result, error) { return RunSimSQL(cl, cfg, VariantDoc) }},
		{"simsql/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunSimSQL(cl, cfg, VariantSV) }},
	}
	var got []string
	for _, p := range ports {
		var final *hmm.Model
		finalModel = func(m *hmm.Model) { final = m }
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
		vs := append([]linalg.Vec{final.Delta0}, final.Delta...)
		vs = append(vs, final.Psi...)
		got = append(got, p.name+" "+tasktest.Digest(vs...))
	}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

package lassotask

import (
	"flag"
	"testing"

	"mlbench/internal/psengine"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins each port's sampler chain: the SHA-256 of the
// per-iteration recovery-error chain's bits, which every Gram entry and
// every coefficient draw feeds through. Each machine holds 30 points,
// so the Giraph super vertices pre-combine several points per block and
// the non-integer scale makes every scaled Gram sum a non-integer. The
// third iteration is the first whose recorded draw a stale worker's SSE
// reaches, so it is what tells the ps/s1 chain from ps/s0.
func TestChainIdentity(t *testing.T) {
	cfg := Config{P: 10, PointsPerMachine: 200_000, Iterations: 3, Seed: 31}
	svCfg := cfg
	svCfg.SuperVertex = true
	ports := []struct {
		name string
		run  func(cl *sim.Cluster) (*task.Result, error)
	}{
		{"giraph/per-point", func(cl *sim.Cluster) (*task.Result, error) { return RunGiraph(cl, cfg) }},
		{"giraph/super-vertex", func(cl *sim.Cluster) (*task.Result, error) { return RunGiraph(cl, svCfg) }},
		{"graphlab", func(cl *sim.Cluster) (*task.Result, error) { return RunGraphLab(cl, cfg) }},
		{"ps/s0", func(cl *sim.Cluster) (*task.Result, error) { return RunPS(cl, cfg, psengine.Config{}) }},
		{"ps/s1", func(cl *sim.Cluster) (*task.Result, error) { return RunPS(cl, cfg, psengine.Config{Staleness: 1}) }},
		{"spark", func(cl *sim.Cluster) (*task.Result, error) { return RunSpark(cl, cfg) }},
		{"simsql", func(cl *sim.Cluster) (*task.Result, error) { return RunSimSQL(cl, cfg) }},
	}
	var got []string
	for _, p := range ports {
		c := sim.DefaultConfig(3)
		c.Scale = 1000 / 0.15
		res, err := p.run(sim.New(c))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(res.Chain) != cfg.Iterations {
			t.Fatalf("%s: chain has %d points, want %d", p.name, len(res.Chain), cfg.Iterations)
		}
		got = append(got, p.name+" "+tasktest.Digest(res.Chain))
	}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

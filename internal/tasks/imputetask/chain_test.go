package imputetask

import (
	"flag"
	"testing"

	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins the ports' sampler chains: the SHA-256 of the
// final imputation error bits, which depend on every earlier round's
// gathered statistics through the parameter draws, and of the virtual
// iteration times. The four-engine config is one where Spark's later
// jobs re-impute points through an earlier iteration's closure via
// lineage, so a change to which model such a recompute reads moves the
// spark line. Each port runs at 1 and 4 host workers and must digest
// the same at both.
func TestChainIdentity(t *testing.T) {
	legacy := Config{K: 3, D: 6, PointsPerMachine: 270_000, Iterations: 3, Seed: 77, SVPerMachine: 4}
	c := sim.DefaultConfig(3)
	c.Scale = 1000 / 0.15
	res, err := RunGraphLab(sim.New(c), legacy)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{"graphlab/super-vertex " + tasktest.Digest([]float64{res.Metrics["impute_rmse"], res.Metrics["baseline_rmse"]})}

	cfg := Config{K: 4, D: 10, PointsPerMachine: 270_000, Iterations: 3, Seed: 77, SVPerMachine: 4}
	ports := []struct {
		name string
		run  func(*sim.Cluster, Config) (*task.Result, error)
	}{
		{"giraph", RunGiraph},
		{"graphlab", RunGraphLab},
		{"spark", RunSpark},
		{"simsql", RunSimSQL},
	}
	for _, p := range ports {
		var digests [2]string
		for i, workers := range []int{1, 4} {
			c := sim.DefaultConfig(4)
			c.Scale = 1000 / 0.15
			c.HostWorkers = workers
			res, err := p.run(sim.New(c), cfg)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", p.name, workers, err)
			}
			digests[i] = tasktest.Digest([]float64{res.Metrics["impute_rmse"], res.Metrics["baseline_rmse"]}, res.IterSecs)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: chain differs between 1 and 4 host workers:\n 1: %s\n 4: %s", p.name, digests[0], digests[1])
		}
		got = append(got, "k4d10/"+p.name+" "+digests[0])
	}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

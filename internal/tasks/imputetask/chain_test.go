package imputetask

import (
	"flag"
	"testing"

	"mlbench/internal/sim"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins the GraphLab port's sampler chain: the SHA-256
// of the final imputation error bits, which depend on every earlier
// round's gathered statistics through the parameter draws.
func TestChainIdentity(t *testing.T) {
	cfg := Config{K: 3, D: 6, PointsPerMachine: 270_000, Iterations: 3, Seed: 77, SVPerMachine: 4}
	c := sim.DefaultConfig(3)
	c.Scale = 1000 / 0.15
	res, err := RunGraphLab(sim.New(c), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{"graphlab/super-vertex " + tasktest.Digest([]float64{res.Metrics["impute_rmse"], res.Metrics["baseline_rmse"]})}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

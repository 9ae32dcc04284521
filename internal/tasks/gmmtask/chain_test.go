package gmmtask

import (
	"flag"
	"testing"

	"mlbench/internal/sim"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins the GraphLab ports' sampler chains: the SHA-256
// of the per-iteration quality chain's bits, which every gathered
// statistic feeds through the parameter draw.
func TestChainIdentity(t *testing.T) {
	var got []string
	for _, sv := range []bool{false, true} {
		cfg := Config{K: 3, D: 2, PointsPerMachine: 40_000, Iterations: 3, Seed: 99, SuperVertex: sv, SVPerMachine: 4}
		c := sim.DefaultConfig(3)
		c.Scale = 1000 / 0.15
		res, err := RunGraphLab(sim.New(c), cfg)
		if err != nil {
			t.Fatalf("super vertex %v: %v", sv, err)
		}
		name := "graphlab/per-point"
		if sv {
			name = "graphlab/super-vertex"
		}
		got = append(got, name+" "+tasktest.Digest(res.Chain))
	}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

package gmmtask

import (
	"flag"
	"testing"

	"mlbench/internal/faults"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
	"mlbench/internal/tasks/task/tasktest"
)

var update = flag.Bool("update", false, "rewrite testdata/chain.golden")

// TestChainIdentity pins the ports' sampler chains: the SHA-256 of the
// per-iteration quality chain's bits, which every gathered statistic
// feeds through the parameter draw. The GraphLab pair runs at a few
// points per machine; the block-walking ports (Giraph super vertices,
// Spark's per-core partitions) run with 60 points per machine in 3-point
// chunks, so consecutive blocks start mid-chunk. The crash run pins the
// Giraph super-vertex chain under fault recovery.
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

	blocks := Config{K: 3, D: 2, PointsPerMachine: 400_000, Iterations: 3, Seed: 99, SVPerMachine: 7}
	svBlocks := blocks
	svBlocks.SuperVertex = true
	cluster := func(sched *faults.Schedule) *sim.Cluster {
		c := sim.DefaultConfig(3)
		c.Scale = 1000 / 0.15
		c.ChunkElems = 3
		c.Faults = sched
		c.Recovery.BSPCheckpointEvery = 2
		return sim.New(c)
	}
	probe := cluster(nil)
	giraphSV, err := RunGiraph(probe, svBlocks)
	if err != nil {
		t.Fatalf("giraph/super-vertex: %v", err)
	}
	got = append(got, "giraph/super-vertex "+tasktest.Digest(giraphSV.Chain))
	ports := []struct {
		name string
		run  func() (*task.Result, error)
	}{
		{"giraph/super-vertex+crash", func() (*task.Result, error) {
			cl := cluster(faults.NewSchedule(faults.CrashAt(1, probe.Now()/2)))
			res, err := RunGiraph(cl, svBlocks)
			if err == nil && len(cl.Faults()) != 1 {
				t.Fatalf("giraph/super-vertex+crash: observed %d faults, want 1", len(cl.Faults()))
			}
			return res, err
		}},
		{"spark/per-point", func() (*task.Result, error) { return RunSpark(cluster(nil), blocks, sim.ProfileJava) }},
		{"spark/super-vertex", func() (*task.Result, error) { return RunSpark(cluster(nil), svBlocks, sim.ProfileJava) }},
	}
	for _, p := range ports {
		res, err := p.run()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got = append(got, p.name+" "+tasktest.Digest(res.Chain))
	}
	tasktest.CheckGolden(t, "testdata/chain.golden", got, *update)
}

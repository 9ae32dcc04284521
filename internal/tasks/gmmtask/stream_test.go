package gmmtask

import (
	"testing"

	"mlbench/internal/sim"
	"mlbench/internal/tasks/task/tasktest"
)

// TestStreamsPinned pins the points that machines 0 and 2 of a 3-machine
// cluster generate under every kind of Dataset.
func TestStreamsPinned(t *testing.T) {
	want := map[string]string{
		"":           "1bf2438a28501fdc",
		"skew-light": "7dcf9f975b95ab13",
		"skew-heavy": "b57f297531240227",
		"imbal-8x":   "ed0479330accaab8",
	}
	got := map[string]string{}
	for _, ds := range tasktest.Datasets {
		cfg := Config{K: 3, D: 4, PointsPerMachine: 200_000, Seed: 99, Dataset: ds}.withDefaults()
		c := sim.DefaultConfig(3)
		c.Scale = 1000 / 0.15
		cl := sim.New(c)
		got[ds] = tasktest.StreamDigest(machineSource(cl, cfg, 0).Materialize(), machineSource(cl, cfg, 2).Materialize())
	}
	tasktest.CheckPins(t, got, want)
}

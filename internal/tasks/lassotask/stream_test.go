package lassotask

import (
	"testing"

	"mlbench/internal/linalg"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task/tasktest"
)

// TestStreamsPinned pins the observations that machines 0 and 2 of a
// 3-machine cluster generate under every kind of Dataset.
func TestStreamsPinned(t *testing.T) {
	want := map[string]string{
		"":           "b5b82643b234fc44",
		"skew-light": "e49858dc6db2bd38",
		"skew-heavy": "a521358d13735831",
		"imbal-8x":   "fb28f21ed244f165",
	}
	got := map[string]string{}
	for _, ds := range tasktest.Datasets {
		cfg := Config{P: 12, PointsPerMachine: 200_000, Seed: 31, Dataset: ds}.withDefaults()
		c := sim.DefaultConfig(3)
		c.Scale = 1000 / 0.15
		cl := sim.New(c)
		d0, d2 := genMachineData(cl, cfg, 0), genMachineData(cl, cfg, 2)
		got[ds] = tasktest.StreamDigest(d0.X, []linalg.Vec{d0.Y}, d2.X, []linalg.Vec{d2.Y})
	}
	tasktest.CheckPins(t, got, want)
}

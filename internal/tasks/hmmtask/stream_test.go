package hmmtask

import (
	"fmt"
	"testing"

	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task/tasktest"
)

// TestStreamsPinned pins the corpus that machines 0 and 2 of a 3-machine
// cluster generate under every kind of Dataset, at the dense tier (the
// CDF word draw) and the alias tier.
func TestStreamsPinned(t *testing.T) {
	want := map[string]string{
		"/dense":           "93853f35e706472b",
		"/alias":           "ba727dfa79897ea4",
		"skew-light/dense": "0fe30acd91afba53",
		"skew-light/alias": "0fe30acd91afba53",
		"skew-heavy/dense": "5b102548cfadab7d",
		"skew-heavy/alias": "5b102548cfadab7d",
		"imbal-8x/dense":   "74fb040cccb5610e",
		"imbal-8x/alias":   "8537343325a4a6b6",
	}
	got := map[string]string{}
	for _, ds := range tasktest.Datasets {
		for _, tier := range []randgen.SamplerTier{randgen.TierDense, randgen.TierAlias} {
			cfg := Config{K: 12, V: 200, DocsPerMachine: 270_000, AvgDocLen: 30, Seed: 13, Sampler: tier, Dataset: ds}.withDefaults()
			c := sim.DefaultConfig(3)
			c.Scale = 1000 / 0.15
			cl := sim.New(c)
			got[fmt.Sprintf("%s/%v", ds, tier)] = tasktest.StreamDigest(genMachineDocs(cl, cfg, 0), genMachineDocs(cl, cfg, 2))
		}
	}
	tasktest.CheckPins(t, got, want)
}

package ldatask

import (
	"fmt"
	"testing"

	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task/tasktest"
)

// TestStreamsPinned pins the corpus that machines 0 and 2 of a 3-machine
// cluster generate under every kind of Dataset, at the dense tier (the
// CDF word draw) and the alias tier, and checks that the streamed
// partition replays the materialized one.
func TestStreamsPinned(t *testing.T) {
	want := map[string]string{
		"/dense":           "6790d43cd2793ab7",
		"/alias":           "c306d97bd30b8bf1",
		"skew-light/dense": "4d2d405e58e3912f",
		"skew-light/alias": "4d2d405e58e3912f",
		"skew-heavy/dense": "0262604f93112599",
		"skew-heavy/alias": "0262604f93112599",
		"imbal-8x/dense":   "05977eda56fd9c52",
		"imbal-8x/alias":   "1ca2dbcec545efb1",
	}
	got := map[string]string{}
	for _, ds := range tasktest.Datasets {
		for _, tier := range []randgen.SamplerTier{randgen.TierDense, randgen.TierAlias} {
			cfg := Config{T: 30, V: 300, DocsPerMachine: 270_000, AvgDocLen: 30, Seed: 19, Sampler: tier, Dataset: ds}.withDefaults()
			c := sim.DefaultConfig(3)
			c.Scale = 1000 / 0.15
			cl := sim.New(c)
			key := fmt.Sprintf("%s/%v", ds, tier)
			got[key] = tasktest.StreamDigest(genMachineDocs(cl, cfg, 0), genMachineDocs(cl, cfg, 2))
			srcs := docSources(cl, cfg, 3)
			streamed := tasktest.StreamDigest(srcs[0].Materialize(), srcs[2].Materialize())
			if streamed != got[key] {
				t.Errorf("%s: streamed corpus %s differs from the materialized %s", key, streamed, got[key])
			}
		}
	}
	tasktest.CheckPins(t, got, want)
}

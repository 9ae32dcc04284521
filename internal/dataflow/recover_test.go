package dataflow

import (
	"testing"

	"mlbench/internal/faults"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
)

// faultCluster builds a cluster with the given crash schedule and costly
// per-tuple work so recovery times are visible in the clock.
func faultCluster(machines int, sched *faults.Schedule) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	cfg.Faults = sched
	return sim.New(cfg)
}

// chain builds a cached RDD at the end of `depth` map stages over n
// records.
func chain(ctx *Context, n, parts, depth int) *RDD[int] {
	r := rangeRDD(ctx, n, parts)
	for i := 0; i < depth; i++ {
		r = Map(r, intSizer, func(m *sim.Meter, x int) int {
			m.ChargeLinalg(5, 100, 10) // make each stage's work non-trivial
			return x + 1
		})
	}
	return r.Cache()
}

// crashedRecoverySec runs count actions over a cached chain of the given
// depth with one crash injected after materialization, and returns the
// recovery time charged for the crash.
func crashedRecoverySec(t *testing.T, depth int) float64 {
	t.Helper()
	// Probe: find when the cached chain is materialized so the crash can be
	// scheduled after it.
	probe := NewContext(testCluster(4), sim.ProfilePython)
	if _, err := Count(chain(probe, 400, 8, depth)); err != nil {
		t.Fatal(err)
	}
	at := probe.cluster.Now() * 1.5 // inside the post-materialization action

	c := faultCluster(4, faults.NewSchedule(faults.CrashAt(2, at)))
	ctx := NewContext(c, sim.ProfilePython)
	cached := chain(ctx, 400, 8, depth)
	if _, err := Count(cached); err != nil {
		t.Fatal(err)
	}
	// Keep running actions until the crash has been observed.
	for len(c.Faults()) == 0 {
		if _, err := Count(cached); err != nil {
			t.Fatal(err)
		}
		if c.Now() > 100*at {
			t.Fatalf("crash at %v never observed (clock %v)", at, c.Now())
		}
	}
	return c.Faults()[0].RecoverySec
}

func TestRecoveryCostGrowsWithLineageDepth(t *testing.T) {
	shallow := crashedRecoverySec(t, 2)
	deep := crashedRecoverySec(t, 8)
	if deep <= shallow {
		t.Errorf("recovery did not grow with lineage depth: depth 2 = %v, depth 8 = %v", shallow, deep)
	}
}

func TestShuffleOutputRecoversAtRecordedCost(t *testing.T) {
	c := faultCluster(4, faults.NewSchedule(faults.CrashAt(1, 1)))
	ctx := NewContext(c, sim.ProfilePython)
	src := Generate(ctx, 8, pairSizer, func(p int, r *randgen.RNG) []Pair[int, float64] {
		out := make([]Pair[int, float64], 200)
		for i := range out {
			out[i] = Pair[int, float64]{K: i % 16, V: 1}
		}
		return out
	})
	red := ReduceByKey(src, func(m *sim.Meter, a, b float64) float64 { return a + b })
	if _, err := Count(red); err != nil {
		t.Fatal(err)
	}
	if red.buildSec <= 0 {
		t.Fatal("shuffle build time not recorded")
	}
	for len(c.Faults()) == 0 {
		if _, err := Count(red); err != nil {
			t.Fatal(err)
		}
	}
	f := c.Faults()[0]
	// 2 of 8 partitions lived on the crashed machine; recovery should be
	// charged around a quarter of the recorded shuffle cost (plus stage
	// resubmission and phase overheads), well under a full re-shuffle.
	if f.RecoverySec <= c.Config().Cost.FaultDetectSec {
		t.Errorf("no shuffle recovery cost charged: %v", f.RecoverySec)
	}
	budget := c.Config().Cost.FaultDetectSec + c.Config().Cost.SparkJobLaunch + red.buildSec*0.5 + 5
	if f.RecoverySec > budget {
		t.Errorf("shuffle recovery cost %v exceeds partial-recovery budget %v (full shuffle %v)",
			f.RecoverySec, budget, red.buildSec)
	}
}

func TestRecoveryKeepsResultsCorrect(t *testing.T) {
	c := faultCluster(3, faults.NewSchedule(faults.CrashAt(1, 0.5), faults.CrashAt(2, 2)))
	ctx := NewContext(c, sim.ProfilePython)
	r := chain(ctx, 120, 6, 3)
	for i := 0; i < 4; i++ {
		n, err := Count(r)
		if err != nil {
			t.Fatal(err)
		}
		if n != 120 {
			t.Fatalf("iteration %d: Count = %d, want 120 after recovery", i, n)
		}
	}
	if len(c.Faults()) != 2 {
		t.Errorf("observed %d faults, want 2", len(c.Faults()))
	}
}

// A disk-persisted RDD recovers by recomputing its lost partitions and
// writing them to disk again, so its recovery costs more than the same
// RDD cached in memory.
func TestDiskPersistedRecoveryRewritesPartitions(t *testing.T) {
	recovery := func(level StorageLevel) float64 {
		build := func(ctx *Context) *RDD[int] {
			return Map(rangeRDD(ctx, 400, 8), intSizer, func(m *sim.Meter, x int) int {
				m.ChargeLinalg(5, 100, 10)
				return x + 1
			}).Persist(level)
		}
		probe := NewContext(testCluster(4), sim.ProfilePython)
		if _, err := Count(build(probe)); err != nil {
			t.Fatal(err)
		}
		at := probe.cluster.Now() * 1.5
		c := faultCluster(4, faults.NewSchedule(faults.CrashAt(2, at)))
		r := build(NewContext(c, sim.ProfilePython))
		for len(c.Faults()) == 0 {
			if _, err := Count(r); err != nil {
				t.Fatal(err)
			}
			if c.Now() > 100*at {
				t.Fatalf("crash at %v never observed (clock %v)", at, c.Now())
			}
		}
		return c.Faults()[0].RecoverySec
	}
	if disk, mem := recovery(StorageDisk), recovery(StorageMemory); disk <= mem {
		t.Errorf("disk-persisted recovery %v s should exceed in-memory %v s (rewrite)", disk, mem)
	}
}

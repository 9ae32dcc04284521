package psengine

import (
	"math"
	"strconv"
	"testing"

	"mlbench/internal/faults"
	"mlbench/internal/sim"
	"mlbench/internal/trace"
)

func testCluster(machines, hostWorkers int) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	cfg.HostWorkers = hostWorkers
	return sim.New(cfg)
}

// spinCycles runs n sum cycles of a tiny dense-model workload: every
// worker contributes a delta that mixes its RNG stream and the model
// version it computed against, the barrier folds the deltas in machine
// order, and the driver applies the fold. Returns the final model.
func spinCycles(t *testing.T, cl *sim.Cluster, e *Engine, dim, n int) []float64 {
	t.Helper()
	model := make([]float64, dim)
	snaps := [][]float64{append([]float64(nil), model...)}
	machines := cl.NumMachines()
	if err := e.AllocModel(int64(8 * dim)); err != nil {
		t.Fatal(err)
	}
	locals := make([][]float64, machines)
	for c := 0; c < n; c++ {
		gathered := make([]float64, dim)
		err := e.RunCycle(Cycle{
			Name:      "test-cycle",
			PullBytes: float64(8 * dim),
			PushBytes: float64(8 * dim),
			Compute: func(w, version int, m *sim.Meter) error {
				base := snaps[version]
				local := make([]float64, dim)
				for i := range local {
					local[i] = base[i]/float64(machines) + m.RNG().Float64() + float64(w)
				}
				m.ChargeBulk(float64(dim))
				locals[w] = local
				return nil
			},
			Fold: func(w int, m *sim.Meter) error {
				FoldDense(gathered, locals[w])
				return nil
			},
			Apply: func(m *sim.Meter) error {
				FoldDense(model, gathered)
				snaps = append(snaps, append([]float64(nil), model...))
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return model
}

func TestLagSchedule(t *testing.T) {
	for _, s := range []int{0, 1, 3} {
		cl := testCluster(4, 1)
		e := New(cl, Config{Staleness: s})
		for cycle := 0; cycle < 8; cycle++ {
			for w := 0; w < 4; w++ {
				lag := e.lag(w)
				if lag < 0 || lag > s || lag > cycle {
					t.Fatalf("s=%d cycle=%d worker=%d: lag %d out of [0, min(s, cycle)]", s, cycle, w, lag)
				}
				if s == 0 && lag != 0 {
					t.Fatalf("s=0 produced lag %d", lag)
				}
			}
			e.cycle++
		}
	}
}

func TestLagSweepsAllValues(t *testing.T) {
	// Past burn-in, every worker must visit every admissible lag — the
	// round-robin is the adversarial SSP schedule, not a fixed offset.
	const s = 3
	cl := testCluster(2, 1)
	e := New(cl, Config{Staleness: s})
	seen := make(map[int]bool)
	e.cycle = s // past burn-in: clamp inactive
	for c := 0; c < s+1; c++ {
		seen[e.lag(0)] = true
		e.cycle++
	}
	for l := 0; l <= s; l++ {
		if !seen[l] {
			t.Errorf("worker 0 never saw lag %d (saw %v)", l, seen)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cl := testCluster(5, 1)
	e := New(cl, Config{})
	if e.cfg.Shards != 5 || e.Staleness() != 0 {
		t.Errorf("defaults: shards=%d staleness=%d, want 5, 0", e.cfg.Shards, e.Staleness())
	}
	if e2 := New(cl, Config{Shards: 99, Staleness: -1}); e2.cfg.Shards != 5 || e2.Staleness() != 0 {
		t.Errorf("clamps: shards=%d staleness=%d, want 5, 0", e2.cfg.Shards, e2.Staleness())
	}
}

func TestHostWorkerIdentity(t *testing.T) {
	// The acceptance bar: virtual clock and model bytes identical at 1 vs
	// 8 host workers, at both synchronous and stale settings.
	for _, s := range []int{0, 2} {
		run := func(workers int) (float64, []float64) {
			cl := testCluster(5, workers)
			e := New(cl, Config{Staleness: s})
			model := spinCycles(t, cl, e, 32, 6)
			return cl.Now(), model
		}
		now1, m1 := run(1)
		now8, m8 := run(8)
		if now1 != now8 {
			t.Errorf("s=%d: clock differs across host workers: %v vs %v", s, now1, now8)
		}
		for i := range m1 {
			if math.Float64bits(m1[i]) != math.Float64bits(m8[i]) {
				t.Fatalf("s=%d: model[%d] differs across host workers: %v vs %v", s, i, m1[i], m8[i])
			}
		}
	}
}

func TestAllocModelAccounting(t *testing.T) {
	// With one shard per machine, every machine holds the full cache plus
	// one shard primary plus one standby: M*bytes + 2*bytes total.
	const machines, bytes = 4, 8000
	cl := testCluster(machines, 1)
	e := New(cl, Config{})
	if err := e.AllocModel(bytes); err != nil {
		t.Fatal(err)
	}
	want := int64(machines*bytes + 2*bytes)
	if got := cl.TotalMemUsed(); got != want {
		t.Errorf("model memory = %d, want %d", got, want)
	}
}

func TestCommCounters(t *testing.T) {
	const machines, cycles, dim = 3, 4, 16
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	cfg.Tracer = trace.NewRecorder()
	cfg.Tracer.BeginCell("test")
	cl := sim.New(cfg)
	e := New(cl, Config{Staleness: 1})
	spinCycles(t, cl, e, dim, cycles)

	met := cfg.Tracer.Metrics()
	wire := float64(8 * dim)
	if got, want := met.Total("push_bytes"), wire*machines*cycles; got != want {
		t.Errorf("push_bytes = %v, want %v", got, want)
	}
	// Staleness 1 amortizes the pull to half the model per cycle.
	if got, want := met.Total("pull_bytes"), wire/2*machines*cycles; got != want {
		t.Errorf("pull_bytes = %v, want %v", got, want)
	}
	var lags float64
	for l := 0; l <= 1; l++ {
		lags += met.Total("stale_lag_" + strconv.Itoa(l))
	}
	if lags != machines*cycles {
		t.Errorf("staleness histogram covers %v observations, want %v", lags, machines*cycles)
	}
	if met.Total("stale_lag_0") == 0 || met.Total("stale_lag_1") == 0 {
		t.Error("round-robin schedule should populate both lag buckets")
	}
}

func TestStaleCyclesCheaperThanSync(t *testing.T) {
	// The headline claim of the architecture: relaxing the staleness bound
	// removes the per-cycle synchronization round trip.
	run := func(s int) float64 {
		cl := testCluster(4, 1)
		e := New(cl, Config{Staleness: s})
		spinCycles(t, cl, e, 32, 8)
		return cl.Now()
	}
	sync, async := run(0), run(2)
	if async >= sync {
		t.Errorf("stale cycles not cheaper: s=2 took %v, s=0 took %v", async, sync)
	}
}

func TestCrashRecoveryCharges(t *testing.T) {
	// A mid-run crash must charge more than bare detection: shard
	// re-replication from the standby, the replacement worker's cache
	// re-pull, and the lost in-flight work.
	probe := testCluster(3, 1)
	spinCycles(t, probe, New(probe, Config{}), 64, 6)
	cycleSec := probe.Now() / 6

	cfg := sim.DefaultConfig(3)
	cfg.Scale = 10
	cfg.Faults = faults.NewSchedule(faults.CrashAt(1, 4.5*cycleSec))
	cl := sim.New(cfg)
	spinCycles(t, cl, New(cl, Config{}), 64, 6)
	log := cl.Faults()
	if len(log) != 1 {
		t.Fatalf("observed %d faults, want 1", len(log))
	}
	if rec := log[0].RecoverySec; rec <= cfg.Cost.FaultDetectSec {
		t.Errorf("recovery = %v, want more than detection (%v)", rec, cfg.Cost.FaultDetectSec)
	}
	if log[0].LostSec <= 0 {
		t.Error("mid-phase crash lost no in-flight work")
	}
}

func TestRecoveryNoGlobalRollback(t *testing.T) {
	// Parameter-server recovery is bounded by re-replication + re-pull +
	// the victim's own lost work — it must never approach a BSP-style
	// full-cycle global rollback across all machines.
	probe := testCluster(3, 1)
	spinCycles(t, probe, New(probe, Config{}), 64, 6)
	cycleSec := probe.Now() / 6

	cfg := sim.DefaultConfig(3)
	cfg.Scale = 10
	cfg.Faults = faults.NewSchedule(faults.CrashAt(1, 4.5*cycleSec))
	cl := sim.New(cfg)
	spinCycles(t, cl, New(cl, Config{}), 64, 6)
	log := cl.Faults()
	if len(log) != 1 {
		t.Fatalf("observed %d faults, want 1", len(log))
	}
	budget := cfg.Cost.FaultDetectSec + log[0].LostSec + 1 // +1s wire slack
	if rec := log[0].RecoverySec; rec > budget {
		t.Errorf("recovery %v exceeds hot-standby budget %v", rec, budget)
	}
}

func TestRunCycleRequiresCompute(t *testing.T) {
	cl := testCluster(2, 1)
	e := New(cl, Config{})
	if err := e.RunCycle(Cycle{Name: "empty"}); err == nil {
		t.Fatal("expected error for cycle without Compute")
	}
}

func TestFoldDense(t *testing.T) {
	dst := []float64{1, 2, 3}
	FoldDense(dst, []float64{10, 20, 30})
	if dst[0] != 11 || dst[1] != 22 || dst[2] != 33 {
		t.Errorf("FoldDense = %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	FoldDense(dst, []float64{1})
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"mlbench/internal/trace"
)

func testConfig(machines int) Config {
	cfg := DefaultConfig(machines)
	cfg.Scale = 10
	cfg.Cost.StragglerLogFactor = 0 // simpler arithmetic in unit tests
	cfg.Cost.PhaseBase = 0
	cfg.Cost.BarrierPerMachine = 0
	return cfg
}

func TestNewDefaults(t *testing.T) {
	c := New(Config{Machines: 3})
	if c.Config().Cores != 8 {
		t.Errorf("Cores default = %d, want 8", c.Config().Cores)
	}
	if c.Config().MemBytes != 68<<30 {
		t.Errorf("MemBytes default = %d", c.Config().MemBytes)
	}
	if c.Config().Scale != 1 {
		t.Errorf("Scale default = %v", c.Config().Scale)
	}
	if c.NumMachines() != 3 {
		t.Errorf("NumMachines = %d", c.NumMachines())
	}
}

func TestNewPanicsWithoutMachines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestClockAdvance(t *testing.T) {
	c := New(testConfig(1))
	c.Advance(2.5)
	if c.Now() != 2.5 {
		t.Errorf("Now = %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	c.Advance(-1)
}

func TestMemoryAccounting(t *testing.T) {
	cfg := testConfig(1)
	cfg.MemBytes = 1000
	c := New(cfg)
	m := c.Machine(0)
	if err := m.Alloc(600, "a"); err != nil {
		t.Fatal(err)
	}
	err := m.Alloc(500, "b")
	if err == nil {
		t.Fatal("expected OOM")
	}
	if !IsOOM(err) {
		t.Fatalf("IsOOM(%v) = false", err)
	}
	var oom *OOMError
	if !errors.As(err, &oom) || oom.Machine != 0 || oom.Requested != 500 || oom.Used != 600 {
		t.Fatalf("OOM fields wrong: %+v", oom)
	}
	m.Free(600)
	if m.MemUsed() != 0 {
		t.Errorf("MemUsed after free = %d", m.MemUsed())
	}
	if err := m.Alloc(1000, "c"); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
	m.Free(5000) // over-free clamps to zero
	if m.MemUsed() != 0 {
		t.Errorf("MemUsed after over-free = %d", m.MemUsed())
	}
}

func TestIsOOMWrapped(t *testing.T) {
	err := fmt.Errorf("outer: %w", &OOMError{Machine: 1})
	if !IsOOM(err) {
		t.Error("IsOOM should see through wrapping")
	}
	if IsOOM(errors.New("plain")) {
		t.Error("IsOOM false positive")
	}
}

func TestRunPhaseParallelComputeDividedByCores(t *testing.T) {
	cfg := testConfig(2)
	cfg.Cores = 4
	c := New(cfg)
	err := c.RunPhaseF("work", func(machine int, m *Meter) error {
		m.ChargeSec(8) // parallel by default
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-2) > 1e-12 { // 8s over 4 cores
		t.Errorf("phase time = %v, want 2", got)
	}
}

func TestRunPhaseSerialNotDivided(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cores = 8
	c := New(cfg)
	err := c.RunDriver("drv", func(m *Meter) error {
		m.ChargeSec(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-3) > 1e-12 {
		t.Errorf("driver time = %v, want 3", got)
	}
}

func TestRunPhaseMaxAcrossMachines(t *testing.T) {
	cfg := testConfig(3)
	cfg.Cores = 1
	c := New(cfg)
	durs := []float64{1, 5, 2}
	err := c.RunPhaseF("skew", func(machine int, m *Meter) error {
		m.ChargeSec(durs[machine])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-5) > 1e-12 {
		t.Errorf("phase time = %v, want max 5", got)
	}
}

func TestRunPhaseCommunicationTime(t *testing.T) {
	cfg := testConfig(2)
	cfg.Scale = 1
	cfg.Net = Network{LatencySec: 0.1, BytesPerSec: 100}
	c := New(cfg)
	err := c.RunPhase("ship", []Task{{Machine: 0, Run: func(m *Meter) error {
		m.SendModel(1, 200) // 2 seconds at 100 B/s
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: latency + 200/100 = 2.1s. Receiver likewise (max of sent/recv).
	if got := c.Now(); math.Abs(got-2.1) > 1e-9 {
		t.Errorf("comm phase time = %v, want 2.1", got)
	}
}

func TestSendDataScaled(t *testing.T) {
	cfg := testConfig(2) // scale 10
	cfg.Net = Network{LatencySec: 0, BytesPerSec: 100}
	c := New(cfg)
	if err := c.RunPhase("ship", []Task{{Machine: 0, Run: func(m *Meter) error {
		m.SendData(1, 50) // 50 real bytes * scale 10 = 500 simulated
		return nil
	}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-5) > 1e-9 {
		t.Errorf("scaled comm time = %v, want 5", got)
	}
}

func TestLocalSendIsFree(t *testing.T) {
	c := New(testConfig(2))
	if err := c.RunPhase("local", []Task{{Machine: 0, Run: func(m *Meter) error {
		m.SendModel(0, 1e12)
		return nil
	}}}); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Errorf("local send cost = %v, want 0", c.Now())
	}
}

func TestRunPhaseErrorAborts(t *testing.T) {
	// A failing task aborts the phase: the error surfaces, later tasks on
	// the SAME machine never run, and the clock reflects only work up to
	// and including the failing task (other machines' groups may execute —
	// they run on independent goroutines — but their charges past the
	// failure index are discarded).
	cfg := testConfig(2)
	cfg.Cores = 1
	c := New(cfg)
	boom := errors.New("boom")
	sameMachineRan := false
	err := c.RunPhase("fail", []Task{
		{Machine: 0, Run: func(m *Meter) error { m.ChargeSerialSec(2); return boom }},
		{Machine: 1, Run: func(m *Meter) error { m.ChargeSerialSec(50); return nil }},
		{Machine: 0, Run: func(m *Meter) error { sameMachineRan = true; return nil }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if sameMachineRan {
		t.Error("task after same-machine failure still ran")
	}
	if got := c.Now(); got != 2 {
		t.Errorf("clock = %v, want 2 (charges past the failing task discarded)", got)
	}
}

func TestRunPhaseErrorLowestIndexWins(t *testing.T) {
	// With host parallelism any of the failing tasks could finish first in
	// real time; the reported error and clock must come from the
	// lowest-indexed one regardless.
	for _, workers := range []int{1, 8} {
		cfg := testConfig(3)
		cfg.Cores = 1
		cfg.HostWorkers = workers
		c := New(cfg)
		errA := errors.New("task 1 failed")
		errB := errors.New("task 2 failed")
		err := c.RunPhase("fail", []Task{
			{Machine: 0, Run: func(m *Meter) error { m.ChargeSerialSec(1); return nil }},
			{Machine: 1, Run: func(m *Meter) error { m.ChargeSerialSec(3); return errA }},
			{Machine: 2, Run: func(m *Meter) error { return errB }},
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
		if got := c.Now(); got != 3 {
			t.Errorf("workers=%d: clock = %v, want 3", workers, got)
		}
	}
}

func TestRunPhaseMergeHook(t *testing.T) {
	// Merge hooks run at the barrier in global task order, share the Run
	// meter (profile and charges carry over), and their charges count.
	cfg := testConfig(3)
	cfg.Cores = 1
	cfg.HostWorkers = 8
	c := New(cfg)
	var order []int
	tasks := make([]Task, 3)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Machine: i,
			Run: func(m *Meter) error {
				m.SetProfile(Profile{TupleSec: 1})
				return nil
			},
			Merge: func(m *Meter) error {
				order = append(order, i)
				m.ChargeTuplesAbs(float64(i + 1)) // profile survives Run->Merge
				return nil
			},
		}
	}
	if err := c.RunPhase("merge", tasks); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("merge order = %v, want [0 1 2]", order)
	}
	if got := c.Now(); math.Abs(got-3) > 1e-12 { // slowest machine charged 3 tuple-seconds
		t.Errorf("clock = %v, want 3", got)
	}
}

func TestRunPhaseMergeErrorAborts(t *testing.T) {
	cfg := testConfig(2)
	cfg.Cores = 1
	c := New(cfg)
	boom := errors.New("merge failed")
	merged := 0
	err := c.RunPhase("merge-fail", []Task{
		{Machine: 0, Run: func(m *Meter) error { m.ChargeSerialSec(1); return nil },
			Merge: func(m *Meter) error { return boom }},
		{Machine: 1, Run: func(m *Meter) error { m.ChargeSerialSec(50); return nil },
			Merge: func(m *Meter) error { merged++; return nil }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if merged != 0 {
		t.Error("merge hook past the failing one still ran")
	}
	if got := c.Now(); got != 1 {
		t.Errorf("clock = %v, want 1", got)
	}
}

func TestRunPhasePanicPropagates(t *testing.T) {
	cfg := testConfig(2)
	cfg.HostWorkers = 8
	c := New(cfg)
	defer func() {
		if p := recover(); p != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", p)
		}
	}()
	_ = c.RunPhase("panic", []Task{
		{Machine: 0, Run: func(m *Meter) error { panic("kaboom") }},
		{Machine: 1, Run: func(m *Meter) error { return nil }},
	})
	t.Fatal("phase returned normally")
}

// TestRunPhaseWorkerCountInvariance pins the tentpole guarantee: the
// virtual clock and communication accounting are byte-identical at any
// HostWorkers setting.
func TestRunPhaseWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []float64 {
		cfg := testConfig(5)
		cfg.HostWorkers = workers
		cfg.Net = Network{LatencySec: 0.25e-3, BytesPerSec: 31e6}
		c := New(cfg)
		var marks []float64
		for iter := 0; iter < 4; iter++ {
			var tasks []Task
			for mc := 0; mc < 5; mc++ {
				mc := mc
				for k := 0; k < 3; k++ {
					tasks = append(tasks, Task{Machine: mc, Run: func(m *Meter) error {
						m.SetProfile(ProfileJava)
						// Charges derived from the machine RNG: any
						// divergence in execution order across worker
						// counts would change these values.
						m.ChargeSec(m.RNG().Float64())
						m.ChargeTuples(int(m.RNG().Intn(1000)))
						m.SendModel(int(m.RNG().Intn(5)), m.RNG().Float64()*1e6)
						m.ChargeSerialSec(m.RNG().Float64() / 7)
						return nil
					}})
				}
			}
			if err := c.RunPhase("mix", tasks); err != nil {
				t.Fatal(err)
			}
			marks = append(marks, c.Now())
		}
		return marks
	}
	base := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("HostWorkers=%d diverges at phase %d: %v vs %v", w, i, got[i], base[i])
			}
		}
	}
}

func TestChargeTuplesUsesProfileAndScale(t *testing.T) {
	cfg := testConfig(1) // scale 10
	cfg.Cores = 1
	c := New(cfg)
	if err := c.RunPhase("tuples", []Task{{Machine: 0, Run: func(m *Meter) error {
		m.SetProfile(Profile{TupleSec: 0.5})
		m.ChargeTuples(4) // 4 * 10 * 0.5 = 20s
		return nil
	}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-20) > 1e-9 {
		t.Errorf("tuple charge = %v, want 20", got)
	}
}

func TestChargeTuplesAbsIgnoresScale(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cores = 1
	c := New(cfg)
	if err := c.RunPhase("tuples", []Task{{Machine: 0, Run: func(m *Meter) error {
		m.SetProfile(Profile{TupleSec: 0.5})
		m.ChargeTuplesAbs(4) // 2s regardless of scale
		return nil
	}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-2) > 1e-9 {
		t.Errorf("abs tuple charge = %v, want 2", got)
	}
}

func TestLinalgHighDimSwitch(t *testing.T) {
	p := Profile{CallSec: 1, FlopSec: 0.001, FlopSecHighDim: 0.1, HighDim: 32}
	low := p.linalgCallSec(100, 10)
	high := p.linalgCallSec(100, 100)
	if math.Abs(low-1.1) > 1e-12 {
		t.Errorf("low-dim call = %v, want 1.1", low)
	}
	if math.Abs(high-11) > 1e-12 {
		t.Errorf("high-dim call = %v, want 11", high)
	}
}

func TestAllocDataScaled(t *testing.T) {
	cfg := testConfig(1) // scale 10
	cfg.MemBytes = 99
	c := New(cfg)
	err := c.RunPhase("alloc", []Task{{Machine: 0, Run: func(m *Meter) error {
		return m.AllocData(10, "x") // 100 simulated bytes > 99 cap
	}}})
	if !IsOOM(err) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestStragglerFactor(t *testing.T) {
	cfg := testConfig(4)
	cfg.Cores = 1
	cfg.Cost.StragglerLogFactor = 0.5
	c := New(cfg)
	if err := c.RunPhaseF("s", func(machine int, m *Meter) error {
		m.ChargeSec(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := 1 * (1 + 0.5*math.Log(4))
	if got := c.Now(); math.Abs(got-want) > 1e-9 {
		t.Errorf("straggler time = %v, want %v", got, want)
	}
}

func TestTracePhases(t *testing.T) {
	cfg := testConfig(2)
	rec := trace.NewRecorder()
	rec.BeginCell("cell")
	cfg.Tracer = rec
	c := New(cfg)
	c.SetEngineLabel("testengine")
	_ = c.RunDriver("one", func(m *Meter) error { m.ChargeSec(1); return nil })
	_ = c.RunPhaseF("two", func(machine int, m *Meter) error {
		m.ChargeSec(2)
		m.SendModel(1-machine, 1e6)
		m.Count("widgets", 3)
		return nil
	})
	c.AdvanceNamed("job-launch", 0.25)

	var phases []trace.Span
	for _, s := range rec.CellSpans("cell") {
		if s.Cat == trace.CatPhase {
			phases = append(phases, s)
		}
	}
	if len(phases) != 2 || phases[0].Name != "one" || phases[1].Name != "two" {
		t.Fatalf("phase spans = %+v", phases)
	}
	if phases[0].Dur <= 0 || phases[1].Dur <= 0 {
		t.Errorf("phase durations not positive: %+v", phases)
	}
	if phases[1].Start != phases[0].Start+phases[0].Dur {
		t.Errorf("phases not contiguous: %+v", phases)
	}
	if phases[0].Arg("tasks") != 1 || phases[1].Arg("tasks") != 2 {
		t.Errorf("task counts wrong: %+v", phases)
	}
	// Clock identity: phase + overhead spans tile the virtual clock.
	if got, want := rec.ClockSum("cell"), c.Now(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ClockSum = %v, clock = %v", got, want)
	}
	// Engine-emitted counters survive the barrier flush, under the
	// engine, cell and phase that emitted them.
	var widgets []trace.Sample
	for _, s := range rec.Metrics().Snapshot() {
		if s.Name == "widgets" {
			widgets = append(widgets, s)
		}
	}
	want := trace.Sample{Key: trace.Key{Engine: "testengine", Cell: "cell", Phase: "two", Name: "widgets"}, Val: 6}
	if !reflect.DeepEqual(widgets, []trace.Sample{want}) {
		t.Errorf("widgets counters = %+v, want %+v (3 from each machine)", widgets, want)
	}
}

func TestMachineRNGDeterministicAndDistinct(t *testing.T) {
	a := New(testConfig(2))
	b := New(testConfig(2))
	if a.Machine(0).rng.Uint64() != b.Machine(0).rng.Uint64() {
		t.Error("same seed, same machine should match")
	}
	if a.Machine(0).rng.Uint64() == a.Machine(1).rng.Uint64() {
		// One collision is astronomically unlikely but not impossible;
		// compare a few draws.
		same := true
		for i := 0; i < 5; i++ {
			if a.Machine(0).rng.Uint64() != a.Machine(1).rng.Uint64() {
				same = false
			}
		}
		if same {
			t.Error("machine streams identical")
		}
	}
}

// Property: phase durations are non-negative and additive in sequence.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(charges []float64) bool {
		c := New(testConfig(1))
		prev := 0.0
		for _, raw := range charges {
			v := math.Mod(math.Abs(raw), 100)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			_ = c.RunDriver("q", func(m *Meter) error {
				m.ChargeSec(v)
				return nil
			})
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: memory accounting never goes negative and Alloc/Free round
// trips restore the previous usage.
func TestQuickAllocFreeRoundTrip(t *testing.T) {
	f := func(sizes []uint16) bool {
		cfg := testConfig(1)
		cfg.MemBytes = 1 << 40
		c := New(cfg)
		m := c.Machine(0)
		for _, s := range sizes {
			before := m.MemUsed()
			if err := m.Alloc(int64(s), "q"); err != nil {
				return false
			}
			m.Free(int64(s))
			if m.MemUsed() != before {
				return false
			}
		}
		return m.MemUsed() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDefaultProfilesSanity(t *testing.T) {
	// The paper's qualitative ordering: C++ cheapest per tuple, then Java,
	// then the SQL engine, then Python.
	if !(ProfileCPP.TupleSec < ProfileJava.TupleSec &&
		ProfileJava.TupleSec < ProfileSQLEngine.TupleSec &&
		ProfileSQLEngine.TupleSec < ProfilePython.TupleSec) {
		t.Error("profile tuple costs out of order")
	}
	// Mallet (Java) must degrade at high dimension; NumPy must not.
	if ProfileJava.FlopSecHighDim <= ProfileJava.FlopSec {
		t.Error("Java profile lacks high-dim penalty")
	}
	if ProfilePython.FlopSecHighDim != ProfilePython.FlopSec {
		t.Error("Python profile should be dimension-uniform")
	}
}

func TestChargeBulkSerialNotDivided(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cores = 8
	c := New(cfg)
	if err := c.RunPhaseF("bulk", func(machine int, m *Meter) error {
		m.SetProfile(Profile{CallSec: 1, BulkFlopSec: 0.001})
		m.ChargeBulkSerialAbs(1000) // 1 + 1 = 2s, serial
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); math.Abs(got-2) > 1e-9 {
		t.Errorf("serial bulk charge = %v, want 2 (not divided by cores)", got)
	}
}

func TestChargeSerialSec(t *testing.T) {
	cfg := testConfig(1)
	cfg.Cores = 8
	c := New(cfg)
	_ = c.RunPhaseF("ser", func(machine int, m *Meter) error {
		m.ChargeSerialSec(3)
		return nil
	})
	if got := c.Now(); math.Abs(got-3) > 1e-9 {
		t.Errorf("serial charge = %v, want 3", got)
	}
}

func TestChargeBulkScaled(t *testing.T) {
	cfg := testConfig(1) // scale 10
	cfg.Cores = 1
	c := New(cfg)
	_ = c.RunPhaseF("bulk", func(machine int, m *Meter) error {
		m.SetProfile(Profile{BulkFlopSec: 0.01})
		m.ChargeBulk(10) // 10 flops x 10 scale x 0.01 = 1s
		return nil
	})
	if got := c.Now(); math.Abs(got-1) > 1e-9 {
		t.Errorf("scaled bulk = %v, want 1", got)
	}
}

func TestDefaultConfigMatchesPaperPlatform(t *testing.T) {
	// The paper's EC2 m2.4xlarge: 8 virtual cores and 68 GB of RAM.
	cfg := DefaultConfig(5)
	if cfg.Cores != 8 {
		t.Errorf("cores = %d, want 8", cfg.Cores)
	}
	if cfg.MemBytes != 68<<30 {
		t.Errorf("memory = %d, want 68 GiB", cfg.MemBytes)
	}
	if cfg.Machines != 5 {
		t.Errorf("machines = %d", cfg.Machines)
	}
}

// Engine counters follow the failure cut like charges do: a task past
// the lowest failing index contributes nothing to the metrics, even when
// its goroutine ran.
func TestTraceCountersHonourFailureCut(t *testing.T) {
	cfg := testConfig(2)
	rec := trace.NewRecorder()
	rec.BeginCell("cell")
	cfg.Tracer = rec
	c := New(cfg)
	boom := errors.New("boom")
	err := c.RunPhase("fail", []Task{
		{Machine: 0, Run: func(m *Meter) error { m.Count("widgets", 1); return nil }},
		{Machine: 1, Run: func(m *Meter) error { m.Count("widgets", 10); return boom }},
		{Machine: 0, Run: func(m *Meter) error { m.Count("widgets", 100); return nil }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := rec.Metrics().Total("widgets"); got != 11 {
		t.Errorf("widgets = %v, want 11 (tasks up to and including the failing one)", got)
	}
}

// Counter increments are float sums, so their fold order shows in the
// bits: the barrier replay must make `-metrics` output identical at any
// host worker count.
func TestTraceCountersWorkerCountInvariant(t *testing.T) {
	run := func(workers int) string {
		cfg := testConfig(5)
		cfg.HostWorkers = workers
		rec := trace.NewRecorder()
		rec.BeginCell("cell")
		cfg.Tracer = rec
		c := New(cfg)
		c.SetEngineLabel("e")
		var tasks []Task
		for mc := 0; mc < 5; mc++ {
			for k := 0; k < 3; k++ {
				tasks = append(tasks, Task{Machine: mc, Run: func(m *Meter) error {
					m.Count("x", m.RNG().Float64()*1e3)
					m.Count("y", m.RNG().Norm())
					return nil
				}})
			}
		}
		if err := c.RunPhase("p", tasks); err != nil {
			t.Fatal(err)
		}
		return rec.Metrics().Render()
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != base {
			t.Fatalf("HostWorkers=%d metrics differ:\n%s\nvs\n%s", w, got, base)
		}
	}
}

// Without a Tracer, Count buffers nothing: untraced runs pay no metric
// bookkeeping.
func TestCountIsNoopWithoutTracer(t *testing.T) {
	c := New(testConfig(1))
	if err := c.RunPhaseF("p", func(machine int, m *Meter) error {
		m.Count("x", 1)
		if len(m.counts) != 0 {
			t.Errorf("untraced meter buffered %d counter samples", len(m.counts))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

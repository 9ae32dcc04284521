package relational

import (
	"math"
	"testing"

	"mlbench/internal/faults"
	"mlbench/internal/sim"
)

func faultEngine(machines int, sched *faults.Schedule) *Engine {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	cfg.Faults = sched
	return NewEngine(sim.New(cfg))
}

// spinPhases runs n identical compute phases through the engine's cluster.
func spinPhases(t *testing.T, e *Engine, n int, sec float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := e.c.RunPhaseF("mr-work", func(machine int, m *sim.Meter) error {
			m.ChargeSerialSec(sec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnlyFailedTaskReruns(t *testing.T) {
	// Probe phase timing.
	probe := faultEngine(4, nil)
	spinPhases(t, probe, 10, 5)
	phaseSec := probe.c.Now() / 10

	// Crash in the 9th phase: recovery must re-run only the victim's
	// in-flight task (lost work + one task-attempt launch), NOT the eight
	// completed phases — MR jobs persist their outputs at every boundary.
	e := faultEngine(4, faults.NewSchedule(faults.CrashAt(2, 8.5*phaseSec)))
	spinPhases(t, e, 10, 5)
	log := e.c.Faults()
	if len(log) != 1 {
		t.Fatalf("observed %d faults, want 1", len(log))
	}
	f := log[0]
	cost := e.c.Config().Cost
	want := cost.FaultDetectSec + f.LostSec + cost.MRTaskRetrySec
	if math.Abs(f.RecoverySec-want) > 1e-9 {
		t.Errorf("RecoverySec = %v, want detect+lost+retry = %v", f.RecoverySec, want)
	}
	if f.RecoverySec > phaseSec+cost.FaultDetectSec+cost.MRTaskRetrySec {
		t.Errorf("MR recovery %v exceeds one phase of work %v", f.RecoverySec, phaseSec)
	}
	if e.recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", e.recoveries)
	}
}

func TestSpeculativeExecutionCapsStragglers(t *testing.T) {
	// A 6x straggler under the engine's speculative execution costs at
	// most MRSpecExecCap times the normal phase.
	base := faultEngine(3, nil)
	spinPhases(t, base, 1, 10)
	clean := base.c.Now()

	strag := faultEngine(3, faults.NewSchedule(faults.StraggleAt(1, 0, 0, 6)))
	spinPhases(t, strag, 1, 10)
	cap := strag.c.Config().Cost.MRSpecExecCap
	if got := strag.c.Now(); got > clean*cap+1e-9 {
		t.Errorf("straggled phase %v exceeds speculative-execution cap %v x clean %v", got, cap, clean)
	}
	if strag.c.Now() <= clean {
		t.Error("straggler had no effect at all")
	}
}

func TestQueryResultsSurviveCrash(t *testing.T) {
	sched := faults.NewSchedule(faults.CrashAt(1, 0.5))
	e := faultEngine(3, sched)
	in := makeTable("r", Ints("k").Concat(Floats("v")), 3, true,
		T(1, 1.0), T(2, 2.0), T(1, 3.0), T(2, 4.0), T(3, 5.0))
	out, err := e.Run("agg", GroupAggP(ScanT(in), []int{0}, []AggSpec{{Kind: AggSum, Col: 1, Name: "s"}}))
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows()
	sortRows(rows)
	want := []Tuple{T(1, 4.0), T(2, 6.0), T(3, 5.0)}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i].Int(0) != want[i].Int(0) || rows[i].Float(1) != want[i].Float(1) {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
	if len(e.c.Faults()) != 1 {
		t.Errorf("observed %d faults, want 1", len(e.c.Faults()))
	}
}

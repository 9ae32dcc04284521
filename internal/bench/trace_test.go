package bench

import (
	"context"
	"math"
	"testing"

	"mlbench/internal/trace"
)

// TestCellTraceClockIdentity is the tracing subsystem's accounting gate,
// run against every engine: the phase and overhead spans recorded for a
// cell must sum exactly to the cluster's final virtual clock — the same
// number the benchmark tables report. Nothing that advances the clock may
// escape the trace, and no fault/task span may double-count into it.
func TestCellTraceClockIdentity(t *testing.T) {
	for _, platform := range []string{"simsql", "spark", "graphlab", "giraph"} {
		platform := platform
		t.Run(platform, func(t *testing.T) {
			t.Parallel()
			s := RunSpec{Iterations: 2, Seed: 3, ScaleDiv: 0.1}.Normalize()
			rec := trace.NewRecorder()
			run := fig7RunFn(s, platform)
			rec.BeginCell(platform)
			cell := cellSpec{machines: 5, scale: gmmScale(10)}
			cl := newCluster(context.Background(), cell, s, ExecOptions{Recorder: rec}, nil, FaultConfig{}, "test")
			if _, err := run(cl); err != nil {
				t.Fatal(err)
			}
			got, want := rec.ClockSum(platform), cl.Now()
			if want <= 0 {
				t.Fatalf("cluster clock = %v, want > 0", want)
			}
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("phase+overhead span sum = %v, cluster clock = %v", got, want)
			}
			if len(rec.CellSpans(platform)) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}

// TestFaultTraceAccounting injects a crash the way the fig7 recovery
// family does and checks the fault appears in the trace with honest
// arithmetic: one crash event per observed fault, lost-work spans summing
// to the reported lost seconds, and the fault-detect overhead plus the
// recovery span covering exactly the FaultInfo.RecoverySec overhead the
// cell's notes report.
func TestFaultTraceAccounting(t *testing.T) {
	s := RunSpec{Iterations: 2, Seed: 3, ScaleDiv: 0.1}.Normalize()
	fc := FaultConfig{Failures: 1}.withFaultDefaults()
	run := fig7RunFn(s, "spark")
	cell := cellSpec{machines: 5, scale: gmmScale(10)}

	// Clean probe run fixes the crash time, exactly as runCell does.
	probe := newCluster(context.Background(), cell, s, ExecOptions{}, nil, FaultConfig{}, "")
	res, err := run(probe)
	if err != nil {
		t.Fatal(err)
	}
	sched := fc.schedule(res.InitSec, res.AvgIterSec(), s.Iterations, 5, s.Seed)

	rec := trace.NewRecorder()
	rec.BeginCell("faulted")
	cl := newCluster(context.Background(), cell, s, ExecOptions{Recorder: rec}, sched, fc, "test")
	if _, err := run(cl); err != nil {
		t.Fatal(err)
	}
	faults := cl.Faults()
	if len(faults) == 0 {
		t.Fatal("no faults observed; schedule did not fire")
	}
	var lostWant, recoveryWant float64
	for _, f := range faults {
		lostWant += f.LostSec
		recoveryWant += f.RecoverySec
	}

	var lostGot, detectGot, recoverGot float64
	for _, s := range rec.CellSpans("faulted") {
		switch {
		case s.Cat == trace.CatFault && s.Name == "lost-work":
			lostGot += s.Dur
		case s.Cat == trace.CatOverhead && s.Name == "fault-detect":
			detectGot += s.Dur
		case s.Cat == trace.CatFault && s.Name == "recovery":
			recoverGot += s.Dur
		}
	}
	crashes := 0
	for _, e := range rec.CellEvents("faulted") {
		if e.Name == "crash" && e.Kind == trace.KindFault {
			crashes++
		}
	}
	if crashes != len(faults) {
		t.Errorf("crash events = %d, observed faults = %d", crashes, len(faults))
	}
	if math.Abs(lostGot-lostWant) > 1e-9*(1+lostWant) {
		t.Errorf("lost-work spans sum to %v, FaultInfo.LostSec sums to %v", lostGot, lostWant)
	}
	if got := detectGot + recoverGot; math.Abs(got-recoveryWant) > 1e-9*(1+recoveryWant) {
		t.Errorf("fault-detect (%v) + recovery (%v) spans = %v, FaultInfo.RecoverySec sums to %v",
			detectGot, recoverGot, got, recoveryWant)
	}
	// The clock identity must survive fault handling: recovery charges are
	// regular phase/overhead time, and the overlapping fault spans must
	// not be double-counted into it.
	if got, want := rec.ClockSum("faulted"), cl.Now(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("faulted run span sum = %v, cluster clock = %v", got, want)
	}
}

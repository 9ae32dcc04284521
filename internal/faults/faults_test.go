package faults

import (
	"reflect"
	"testing"
)

func TestNewScheduleOrdersEvents(t *testing.T) {
	s := NewSchedule(
		CrashAt(3, 50),
		CrashAt(1, 10),
		StraggleAt(2, 10, 5, 3),
	)
	if len(s.Events) != 3 {
		t.Fatalf("events = %d", len(s.Events))
	}
	if s.Events[0].Machine != 1 || s.Events[1].Machine != 2 || s.Events[2].Machine != 3 {
		t.Errorf("events not ordered by (At, Machine): %+v", s.Events)
	}
	if len(s.Crashes()) != 2 || len(s.Stragglers()) != 1 {
		t.Errorf("Crashes/Stragglers split wrong: %d/%d", len(s.Crashes()), len(s.Stragglers()))
	}
}

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative machine": func() { NewSchedule(CrashAt(-1, 0)) },
		"negative time":    func() { NewSchedule(CrashAt(0, -1)) },
		"factor <= 1":      func() { NewSchedule(StraggleAt(0, 0, 1, 1.0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSpreadCrashesDeterministic(t *testing.T) {
	a := SpreadCrashes(3, 20, 100, 400, 7)
	b := SpreadCrashes(3, 20, 100, 400, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a, b)
	}
	c := SpreadCrashes(3, 20, 100, 400, 8)
	same := true
	for i := range a.Events {
		if a.Events[i].Machine != c.Events[i].Machine {
			same = false
		}
	}
	if same {
		t.Error("different seeds chose identical victims (possible but wildly unlikely)")
	}
}

func TestSpreadCrashesWindowAndVictims(t *testing.T) {
	s := SpreadCrashes(4, 10, 100, 200, 1)
	if len(s.Events) != 4 {
		t.Fatalf("events = %d", len(s.Events))
	}
	for i, e := range s.Events {
		if e.Kind != Crash {
			t.Errorf("event %d kind = %v", i, e.Kind)
		}
		if e.At < 100 || e.At >= 200 {
			t.Errorf("event %d at %v outside [100,200)", i, e.At)
		}
		if e.Machine < 1 || e.Machine >= 10 {
			t.Errorf("event %d victim %d: machine 0 is spared, must be in [1,10)", i, e.Machine)
		}
	}
	// Events are evenly spread: one per quarter of the window.
	for i, e := range s.Events {
		lo := 100 + float64(i)*25.0
		if e.At < lo || e.At >= lo+25 {
			t.Errorf("event %d at %v outside its sub-window [%v,%v)", i, e.At, lo, lo+25)
		}
	}
	// Single-machine cluster: only machine 0 exists, so it is the victim.
	s1 := SpreadCrashes(1, 1, 0, 10, 1)
	if s1.Events[0].Machine != 0 {
		t.Errorf("single-machine victim = %d", s1.Events[0].Machine)
	}
	// Degenerate windows produce empty schedules.
	if len(SpreadCrashes(0, 5, 0, 10, 1).Events) != 0 || len(SpreadCrashes(2, 5, 10, 10, 1).Events) != 0 {
		t.Error("degenerate SpreadCrashes should be empty")
	}
}

// A nil schedule is how a run without fault injection is configured: it
// must read as empty rather than panic.
func TestNilScheduleHasNoEvents(t *testing.T) {
	var s *Schedule
	if s.Crashes() != nil || s.Stragglers() != nil {
		t.Fatalf("nil schedule: crashes %v, stragglers %v", s.Crashes(), s.Stragglers())
	}
}

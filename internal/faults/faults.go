// Package faults defines deterministic fault-injection schedules for the
// simulated cluster: machine crashes and stragglers pinned to virtual-clock
// times. The paper justifies SimSQL/Hadoop's per-iteration launch overhead
// as "the price of fault tolerance" but never injects a failure; a Schedule
// turns that assertion into something the benchmark can measure. Schedules
// carry no randomness of their own — the seeded generators here are pure
// functions of their arguments, so a (seed, schedule) pair always produces
// byte-identical experiment tables.
//
// The package intentionally knows nothing about the simulator: internal/sim
// consumes a Schedule, and each engine implements its own paradigm-faithful
// recovery (MR task re-execution, dataflow lineage recomputation, BSP
// checkpoint rollback, GAS snapshot restore, parameter-server shard
// re-replication from a hot standby).
package faults

import (
	"fmt"
	"sort"

	"mlbench/internal/randgen"
)

// Kind distinguishes fault event types.
type Kind int

const (
	// Crash kills one machine at a point in virtual time. The cluster
	// detects the loss at the end of the phase whose execution covers the
	// event, charges a detection latency, and hands the event to the
	// running engine's recovery handler. The machine is replaced
	// immediately (cloud semantics); the recovery cost is the engine's.
	Crash Kind = iota
	// Straggle slows one machine's compute by Factor for Duration virtual
	// seconds (or for the rest of the run when Duration is 0).
	Straggle
)

// String names the kind for notes and traces.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggle:
		return "straggle"
	default:
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind    Kind
	Machine int     // victim machine index
	At      float64 // virtual seconds at which the fault occurs
	// Factor is the compute slowdown multiplier of a Straggle event (> 1).
	Factor float64
	// Duration is the straggle window length in virtual seconds; 0 means
	// the machine straggles for the rest of the run.
	Duration float64
}

// String renders the event for notes.
func (e Event) String() string {
	switch e.Kind {
	case Straggle:
		return fmt.Sprintf("straggle machine %d at %.1fs (%.1fx, %.1fs)", e.Machine, e.At, e.Factor, e.Duration)
	default:
		return fmt.Sprintf("crash machine %d at %.1fs", e.Machine, e.At)
	}
}

// CrashAt builds a crash event.
func CrashAt(machine int, at float64) Event {
	return Event{Kind: Crash, Machine: machine, At: at}
}

// StraggleAt builds a straggle event: machine runs factor times slower
// from at for duration seconds (0 = rest of run).
func StraggleAt(machine int, at, duration, factor float64) Event {
	return Event{Kind: Straggle, Machine: machine, At: at, Factor: factor, Duration: duration}
}

// Schedule is an ordered set of fault events.
type Schedule struct {
	Events []Event
}

// NewSchedule builds a schedule, validating and stably ordering the events
// by (At, Machine).
func NewSchedule(events ...Event) *Schedule {
	for _, e := range events {
		if e.Machine < 0 {
			panic(fmt.Sprintf("faults: event on negative machine %d", e.Machine))
		}
		if e.At < 0 {
			panic(fmt.Sprintf("faults: event at negative time %v", e.At))
		}
		if e.Kind == Straggle && e.Factor <= 1 {
			panic(fmt.Sprintf("faults: straggle factor %v must exceed 1", e.Factor))
		}
	}
	s := &Schedule{Events: append([]Event(nil), events...)}
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].At != s.Events[j].At {
			return s.Events[i].At < s.Events[j].At
		}
		return s.Events[i].Machine < s.Events[j].Machine
	})
	return s
}

// Crashes returns the crash events in order.
func (s *Schedule) Crashes() []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, e := range s.Events {
		if e.Kind == Crash {
			out = append(out, e)
		}
	}
	return out
}

// Stragglers returns the straggle events in order.
func (s *Schedule) Stragglers() []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, e := range s.Events {
		if e.Kind == Straggle {
			out = append(out, e)
		}
	}
	return out
}

// SpreadCrashes builds a schedule of n crashes evenly spread across
// [start, end), with victim machines drawn deterministically from seed.
// Machine 0 is spared when the cluster has more than one machine (it hosts
// the driver/master in every engine, and none of the paper's platforms
// survives master loss — master fail-over is a different experiment).
func SpreadCrashes(n, machines int, start, end float64, seed uint64) *Schedule {
	if n <= 0 || machines <= 0 || end <= start {
		return NewSchedule()
	}
	rng := randgen.New(seed).Split(0xFA01F5)
	events := make([]Event, 0, n)
	step := (end - start) / float64(n)
	for i := 0; i < n; i++ {
		victim := 0
		if machines > 1 {
			victim = 1 + rng.Intn(machines-1)
		}
		// The i-th crash lands mid-way through the i-th sub-window.
		events = append(events, CrashAt(victim, start+(float64(i)+0.5)*step))
	}
	return NewSchedule(events...)
}

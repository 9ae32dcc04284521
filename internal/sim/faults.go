package sim

import (
	"mlbench/internal/faults"
	"mlbench/internal/trace"
)

// This file is the cluster side of the fault-injection subsystem
// (internal/faults): the virtual clock drives a deterministic Schedule of
// machine crashes and stragglers, and the running engine supplies the
// paradigm-specific recovery semantics through a handler.
//
// Timing model. A crash occurs at its scheduled virtual time, but — as on
// a real cluster — it is only *observed* when the framework notices: at
// the end of the phase whose execution interval covers the event. The
// cluster then charges the failure-detection latency (heartbeat timeout,
// CostModel.FaultDetectSec), computes how much of the victim's in-flight
// phase work was lost, and invokes the engine's fault handler, which
// charges its recovery cost against the same virtual clock (task
// re-execution, lineage recomputation, checkpoint rollback, snapshot
// restore). The crashed machine is replaced immediately — cloud semantics,
// as on the paper's EC2 clusters — so cluster capacity is unchanged and
// the recovery charge is entirely the engine's. Simulated memory contents
// are retained by the accountant: they stand for the state the replacement
// machine holds after recovery, which the handler has already paid for.
//
// Stragglers are not observed events: a Straggle window simply inflates
// the victim's compute time in every overlapping phase. An engine with
// speculative execution (Hadoop) caps the effective slowdown via
// SetStragglerCap.

// RecoveryConfig carries the engine checkpointing policies that trade
// steady-state overhead against recovery cost. The zero value disables
// periodic state saving, which leaves rollback-based engines recovering
// from the start of the computation — exactly how the paper's deployments
// ran (Giraph checkpointing off, no GraphLab snapshots).
type RecoveryConfig struct {
	// BSPCheckpointEvery is the number of supersteps between Giraph
	// checkpoint writes (0 = never checkpoint).
	BSPCheckpointEvery int
	// GASSnapshotEvery is the number of engine rounds between GraphLab
	// asynchronous snapshots (0 = never snapshot).
	GASSnapshotEvery int
}

// FaultInfo reports one observed fault: the scheduled event plus how and
// when the cluster noticed it and what recovering from it cost.
type FaultInfo struct {
	Event faults.Event
	// Phase is the phase during which the fault was observed.
	Phase string
	// ObservedAt is the virtual time at which the fault was detected
	// (the end of the covering phase).
	ObservedAt float64
	// LostSec is the victim machine's in-flight work lost with the crash:
	// the portion of its phase time after the event.
	LostSec float64
	// RecoverySec is the total virtual time charged for this fault:
	// detection latency plus whatever the engine's handler charged.
	RecoverySec float64
}

// FaultHandler is an engine's recovery hook, invoked once per observed
// crash. Implementations charge their recovery cost by advancing the
// cluster clock (running recovery phases is fine — fault settling is
// suppressed while a handler runs). A returned error aborts the phase that
// observed the fault, e.g. when recovery itself exhausts memory.
type FaultHandler func(FaultInfo) error

// SetFaultHandler installs the recovery handler for observed crashes.
// Engines register themselves at construction; the most recently
// constructed engine owns recovery (each benchmark cell runs one engine).
func (c *Cluster) SetFaultHandler(h FaultHandler) { c.onFault = h }

// SetStragglerCap bounds the effective straggle slowdown factor,
// modelling speculative task execution: when a machine falls behind, the
// framework re-runs its tasks elsewhere, so the phase pays at most the
// cap. 0 removes the cap.
func (c *Cluster) SetStragglerCap(cap float64) { c.stragglerCap = cap }

// Faults returns every fault observed so far, in observation order.
func (c *Cluster) Faults() []FaultInfo { return c.faultLog }

// RecoveredSec sums the recovery time charged for faults observed so far,
// so an engine's timings of its own steps can exclude it.
func (c *Cluster) RecoveredSec() float64 {
	var s float64
	for _, f := range c.faultLog {
		s += f.RecoverySec
	}
	return s
}

// initFaults splits the configured schedule into the crash queue and the
// straggle windows.
func (c *Cluster) initFaults(s *faults.Schedule) {
	c.crashes = s.Crashes()
	c.stragglers = s.Stragglers()
}

// straggleFactor returns the compute-time inflation for a machine over a
// phase interval, from straggle windows overlapping [start, end), capped
// by speculative execution when the engine enabled it.
func (c *Cluster) straggleFactor(machine int, start, end float64) float64 {
	f := 1.0
	for _, ev := range c.stragglers {
		if ev.Machine != machine || ev.At >= end {
			continue
		}
		if ev.Duration > 0 && ev.At+ev.Duration <= start {
			continue
		}
		if ev.Factor > f {
			f = ev.Factor
		}
	}
	if c.stragglerCap > 0 && f > c.stragglerCap {
		f = c.stragglerCap
	}
	return f
}

// settleFaults observes crashes crossed by the clock during the phase that
// just ended: for each, it charges detection latency, attributes lost
// in-flight work, and invokes the engine's recovery handler. Crashes
// crossed while a handler runs (recovery phases advance the clock too) are
// observed by the same settling loop, not recursively.
func (c *Cluster) settleFaults(phase string, start float64, machineSec []float64) error {
	if c.inRecovery {
		return nil
	}
	c.inRecovery = true
	defer func() { c.inRecovery = false }()
	var firstErr error
	for c.nextCrash < len(c.crashes) {
		ev := c.crashes[c.nextCrash]
		if ev.At > c.clock {
			break
		}
		c.nextCrash++
		end := c.clock
		lost := 0.0
		if ev.Machine < len(machineSec) && end > start {
			frac := (end - ev.At) / (end - start)
			if frac < 0 {
				frac = 0 // crashed before this phase started (between phases)
			}
			if frac > 1 {
				frac = 1
			}
			lost = frac * machineSec[ev.Machine]
		}
		info := FaultInfo{Event: ev, Phase: phase, ObservedAt: end, LostSec: lost}
		rec := c.cfg.Tracer
		if rec != nil {
			rec.AddEvent("crash", trace.KindFault, ev.Machine, ev.At,
				trace.A("observed_at", end), trace.A("lost_sec", lost))
			if lost > 0 {
				rec.AddSpan("lost-work", trace.CatFault, ev.Machine, ev.At, lost,
					trace.A("phase_frac", lost/machineSec[ev.Machine]))
			}
		}
		// Detection latency is an overhead span ("fault-detect"); the
		// handler's own charges — recovery phases and advances — emit their
		// usual spans, and the "recovery" fault span brackets them without
		// adding clock time, so the clock identity still holds. Its duration
		// plus FaultDetectSec equals the FaultInfo.RecoverySec reported in
		// the fig7 tables.
		c.AdvanceNamed("fault-detect", c.cfg.Cost.FaultDetectSec)
		before := c.clock
		if c.onFault != nil && firstErr == nil {
			if err := c.onFault(info); err != nil {
				firstErr = err
			}
		}
		info.RecoverySec = c.cfg.Cost.FaultDetectSec + (c.clock - before)
		if rec != nil {
			rec.AddSpan("recovery", trace.CatFault, ev.Machine, before, c.clock-before,
				trace.A("lost_sec", lost), trace.A("detect_sec", c.cfg.Cost.FaultDetectSec))
		}
		c.faultLog = append(c.faultLog, info)
	}
	return firstErr
}

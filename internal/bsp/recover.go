package bsp

import (
	"fmt"

	"mlbench/internal/sim"
)

// Fault recovery, the Giraph way: the graph optionally writes a replicated
// checkpoint of all vertex and shared state every k supersteps, and a
// machine crash rolls EVERY machine back to the last checkpoint — the BSP
// barrier couples the workers, so one lost worker costs the whole cluster
// the supersteps since the checkpoint (plus the restore). With
// checkpointing off — how the paper's Giraph deployment ran — recovery is
// a full restart: reload the graph and replay every superstep.

// recoveredSec sums the recovery time charged for faults observed so far,
// so superstep timings can exclude it.
func recoveredSec(c *sim.Cluster) float64 {
	var s float64
	for _, f := range c.Faults() {
		s += f.RecoverySec
	}
	return s
}

// checkpoint writes every machine's resident graph state to replicated
// storage: one local disk write, one copy shipped to a peer and written
// there (modelled as a second local-rate write).
func (g *Graph) checkpoint() error {
	c := g.c
	cost := c.Config().Cost
	start, rec0 := c.Now(), recoveredSec(c)
	err := c.RunPhaseF(fmt.Sprintf("bsp-checkpoint-%d", g.step), func(machine int, m *sim.Meter) error {
		bytes := g.machineStateBytes(machine)
		m.ChargeSec(2 * bytes / cost.DiskBytesPerSec)
		if c.NumMachines() > 1 {
			m.SendModel((machine+1)%c.NumMachines(), bytes)
		}
		m.Count("checkpoint_bytes", bytes)
		return nil
	})
	if err != nil {
		return err
	}
	g.haveCkpt = true
	// Restoring reads back what writing wrote, at about the same cost.
	g.ckptRestoreSec = (c.Now() - start) - (recoveredSec(c) - rec0)
	g.stepSecs = g.stepSecs[:0]
	return nil
}

// machineStateBytes is the simulated resident graph state on one machine:
// vertex state plus the worker-shared values.
func (g *Graph) machineStateBytes(machine int) float64 {
	bytes := float64(g.sharedAlloc)
	for _, v := range g.byMach[machine] {
		b := float64(v.Bytes)
		if v.Scaled {
			b *= g.c.Scale()
		}
		bytes += b
	}
	return bytes
}

// handleFault is the engine's sim.FaultHandler: global rollback to the
// last checkpoint (or a full reload when there is none) plus replay of
// every superstep run since.
func (g *Graph) handleFault(sim.FaultInfo) error {
	restore := g.loadSec
	if g.haveCkpt {
		restore = g.ckptRestoreSec
	}
	var replay float64
	for _, s := range g.stepSecs {
		replay += s
	}
	g.c.AdvanceNamed("bsp-rollback-restore", restore)
	g.c.AdvanceNamed("bsp-replay-supersteps", replay)
	return nil
}

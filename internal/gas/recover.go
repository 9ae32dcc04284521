package gas

import (
	"fmt"

	"mlbench/internal/sim"
)

// Fault recovery, the GraphLab way: a Chandy-Lamport-style snapshot runs
// asynchronously alongside computation every k rounds (only
// CostModel.GASSnapshotAsyncFrac of the write surfaces as wall time), and
// a machine crash restores ONLY the victim's subgraph from the snapshot —
// its peers keep their live state, so unlike BSP there is no global
// rollback: the victim replays its share of the rounds since the snapshot
// at CostModel.GASReplayFrac of their cost (warm ghost caches at the
// survivors). With snapshots off — how the paper's GraphLab deployment
// ran — a crash means restarting the job: reload plus full replay.

// machineStateBytes is the simulated resident vertex state on one machine.
func (g *Graph) machineStateBytes(machine int) float64 {
	var bytes float64
	for _, v := range g.byMach[machine] {
		b := float64(v.Bytes)
		if v.Scaled {
			b *= g.c.Scale()
		}
		bytes += b
	}
	return bytes
}

// snapshot writes every machine's subgraph to disk asynchronously: the
// engine keeps computing while the snapshot drains, so only a fraction of
// the write cost surfaces.
func (g *Graph) snapshot() error {
	cost := g.c.Config().Cost
	err := g.c.RunPhaseF(fmt.Sprintf("gas-snapshot-%d", g.rounds), func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		bytes := g.machineStateBytes(machine)
		m.ChargeSec(cost.GASSnapshotAsyncFrac * bytes / cost.DiskBytesPerSec)
		return nil
	})
	if err != nil {
		return err
	}
	g.haveSnap = true
	g.roundSecs = g.roundSecs[:0]
	return nil
}

// handleFault is the engine's sim.FaultHandler: restore the victim's
// subgraph from the last snapshot and replay only its rounds since — or,
// with no snapshot, restart the whole computation.
func (g *Graph) handleFault(f sim.FaultInfo) error {
	victim := f.Event.Machine
	if victim >= g.machines {
		return nil // boot-clamped spare: hosted no graph state
	}
	c := g.c
	cost := c.Config().Cost
	var replay float64
	for _, s := range g.roundSecs {
		replay += s
	}
	if !g.haveSnap {
		c.AdvanceNamed("gas-restart", g.loadSec+replay)
		return nil
	}
	state := g.machineStateBytes(victim)
	restore := state/cost.DiskBytesPerSec + state/c.Config().Net.BytesPerSec
	c.AdvanceNamed("gas-snapshot-restore", restore)
	c.AdvanceNamed("gas-replay-rounds", cost.GASReplayFrac*replay)
	return nil
}

package relational

import (
	"mlbench/internal/sim"
)

// Fault recovery, the Hadoop way: SimSQL compiles to MapReduce jobs, and
// MapReduce tolerates a lost worker by re-executing only that worker's
// in-flight task attempt from its on-disk inputs (every job boundary is a
// durable HDFS/local-disk spill). Recovery therefore costs the victim's
// lost work plus one task-attempt launch — no other machine rolls back,
// no lineage recomputes. Stragglers are handled by speculative execution:
// a backup attempt elsewhere bounds the slowdown at
// CostModel.MRSpecExecCap. This is why the paper's SimSQL runs were slow
// but never failed.

// handleFault is the engine's sim.FaultHandler: re-run the failed task.
func (e *Engine) handleFault(f sim.FaultInfo) error {
	e.c.AdvanceNamed("mr-task-rerun", f.LostSec+e.c.Config().Cost.MRTaskRetrySec)
	e.recoveries++
	return nil
}

package dataflow

import (
	"mlbench/internal/sim"
)

// Fault recovery, the Spark way: an RDD partition lost with a machine is
// rebuilt from lineage. The context registers every RDD as it materializes
// (registration order == materialization order, so parents always recover
// before children) and installs a cluster fault handler that walks the
// registry when a crash is observed. Two cases per RDD:
//
//   - lineage-backed (cached or disk-persisted): the lost partitions
//     re-execute their compute function for real, which recurses through
//     every unmaterialized ancestor — recovery cost grows with lineage
//     depth since the last cache, exactly Spark's trade-off.
//   - shuffle output: the lost reduce tasks re-run at the recorded shuffle
//     cost, scaled by the lost partition fraction.

// recoverable is the type-erased registry view of a materialized RDD.
type recoverable interface {
	recoverLost(machine int) error
}

func (ctx *Context) register(r recoverable) {
	ctx.recov = append(ctx.recov, r)
}

// handleFault is the engine's sim.FaultHandler: the driver resubmits the
// failed stage, re-ships live broadcast variables to the replacement
// executor, and rebuilds lost partitions in materialization order.
func (ctx *Context) handleFault(f sim.FaultInfo) error {
	c := ctx.cluster
	c.AdvanceNamed("spark-resubmit", c.Config().Cost.SparkJobLaunch)
	if ctx.bcastBytes > 0 {
		c.AdvanceNamed("spark-reship-broadcast", float64(ctx.bcastBytes)/c.Config().Net.BytesPerSec)
	}
	for _, r := range ctx.recov {
		if err := r.recoverLost(f.Event.Machine); err != nil {
			return err
		}
	}
	return nil
}

// noteMaterialized records how long materialization took (the recovery
// cost basis for shuffle outputs) and registers the RDD for fault
// recovery, once.
func (r *RDD[T]) noteMaterialized(buildSec float64) {
	r.buildSec = buildSec
	if !r.registered {
		r.registered = true
		r.ctx.register(r)
	}
}

// recoverLost rebuilds this RDD's partitions that lived on the crashed
// machine. Simulated memory is retained across the crash (it stands for
// the state the replacement holds after recovery — see internal/sim's
// fault model), so only time is charged here, not allocations.
func (r *RDD[T]) recoverLost(machine int) error {
	if !r.haveMat {
		return nil
	}
	var lost []int
	for p := 0; p < r.parts; p++ {
		if r.ctx.machineFor(p) == machine {
			lost = append(lost, p)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	c := r.ctx.cluster
	cost := c.Config().Cost
	switch {
	case r.compute != nil:
		return c.RunPhase("recover-compute "+r.name, r.lostTasks(lost, func(p int, m *sim.Meter) error {
			data, err := r.compute(p, m)
			if err != nil {
				return err
			}
			r.mat[p] = data
			if r.storage == StorageDisk && r.matBytes != nil {
				m.ChargeSec(float64(r.matBytes[p]) / cost.DiskBytesPerSec)
			}
			return nil
		}))
	default:
		// Shuffle output with no compute function: charge the recorded
		// shuffle time for the lost reduce tasks.
		frac := float64(len(lost)) / float64(r.parts)
		sec := r.buildSec * frac
		return c.RunPhase("recover-shuffle "+r.name, r.lostTasks(lost[:1], func(p int, m *sim.Meter) error {
			m.ChargeSec(sec)
			return nil
		}))
	}
}

// lostTasks builds recovery tasks pinned to the (replaced) machines of the
// given partitions.
func (r *RDD[T]) lostTasks(ps []int, fn func(p int, m *sim.Meter) error) []sim.Task {
	tasks := make([]sim.Task, len(ps))
	for i, p := range ps {
		p := p
		tasks[i] = sim.Task{Machine: r.ctx.machineFor(p), Run: func(m *sim.Meter) error {
			m.SetProfile(r.ctx.profile)
			return fn(p, m)
		}}
	}
	return tasks
}

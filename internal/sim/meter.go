package sim

import (
	"mlbench/internal/randgen"
	"mlbench/internal/trace"
)

// Meter accumulates the virtual cost of one task: compute seconds
// (parallel and serial), simulated bytes sent/received, and simulated
// memory allocations. Engines charge through a Meter using the language
// Profile of the user code they are running.
//
// All "data-proportional" helpers (the ...Data and plain Charge variants)
// multiply by the cluster's Scale factor, so iterating over the
// scale-reduced in-memory data charges paper-scale costs. The ...Abs and
// ...Model variants charge exactly what they are given, for
// model-proportional work that is not scaled down.
type Meter struct {
	machine *Machine
	cluster *Cluster
	prof    Profile
	parSec  float64
	serSec  float64
	serial  bool
	sends   []sendRec
	counts  []ctRec
}

// sendRec is one buffered network transfer. Sends are not applied to the
// shared per-machine accumulators while the task runs — tasks may execute
// concurrently on host goroutines — but replayed in deterministic task
// order at the phase barrier.
type sendRec struct {
	dst   int
	bytes float64
}

// ctRec is one buffered counter increment. Like sends, samples are held
// on the meter while the task runs and replayed into the shared Recorder
// at the phase barrier in global task order, so the exported metrics are
// byte-identical for every host worker count.
type ctRec struct {
	name string
	val  float64
}

// reset rebinds a pooled meter to a task's machine, clearing buffered
// state while keeping the send/count buffer capacity from the
// meter's previous phase (see Cluster.getScratch).
func (t *Meter) reset(machine *Machine, cluster *Cluster) {
	t.machine = machine
	t.cluster = cluster
	t.prof = Profile{}
	t.parSec, t.serSec = 0, 0
	t.serial = false
	t.sends = t.sends[:0]
	t.counts = t.counts[:0]
}

// Machine returns the machine this task runs on.
func (t *Meter) Machine() *Machine { return t.machine }

// RNG returns the machine's deterministic random stream.
func (t *Meter) RNG() *randgen.RNG { return t.machine.rng }

// Scale returns the data scale-down factor S.
func (t *Meter) Scale() float64 { return t.cluster.cfg.Scale }

// SetProfile selects the language profile (Python, Java, C++, SQL engine)
// whose constants subsequent charges use.
func (t *Meter) SetProfile(p Profile) { t.prof = p }

// Serial marks the task as serial: subsequent compute charges are not
// divided across the machine's cores (driver-side or master-side work).
func (t *Meter) Serial() { t.serial = true }

func (t *Meter) addCompute(sec float64) {
	if t.serial {
		t.serSec += sec
	} else {
		t.parSec += sec
	}
}

// ChargeSec charges raw virtual compute seconds, unscaled.
func (t *Meter) ChargeSec(sec float64) { t.addCompute(sec) }

// ChargeTuples charges per-record handling cost for n real records
// (scaled by S to paper scale) under the active profile.
func (t *Meter) ChargeTuples(n int) {
	t.addCompute(float64(n) * t.cluster.cfg.Scale * t.prof.TupleSec)
}

// ChargeTuplesAbs charges per-record handling cost for n paper-scale
// records (no scaling applied).
func (t *Meter) ChargeTuplesAbs(n float64) {
	t.addCompute(n * t.prof.TupleSec)
}

// ChargeLinalg charges calls linear-algebra operations of flopsPerCall
// flops each at the given dimension, for work proportional to the data
// (scaled by S). Each call pays the profile's fixed call overhead plus a
// marginal per-flop cost that depends on whether dim exceeds the
// high-dimension threshold (modelling, e.g., Mallet's poor 100-d behaviour
// versus NumPy's vectorized kernels).
func (t *Meter) ChargeLinalg(calls int, flopsPerCall float64, dim int) {
	t.addCompute(float64(calls) * t.cluster.cfg.Scale * t.prof.linalgCallSec(flopsPerCall, dim))
}

// ChargeLinalgAbs charges calls linear-algebra operations without data
// scaling (model-proportional work such as sampling K cluster parameters).
func (t *Meter) ChargeLinalgAbs(calls int, flopsPerCall float64, dim int) {
	t.addCompute(float64(calls) * t.prof.linalgCallSec(flopsPerCall, dim))
}

// ChargeBulkAbs charges one large dense operation of the given flop count
// at the profile's optimized-kernel rate (unscaled; bulk operations are
// model-sized, e.g. a P x P Cholesky on the driver).
func (t *Meter) ChargeBulkAbs(flops float64) {
	t.addCompute(t.prof.CallSec + flops*t.prof.BulkFlopSec)
}

// ChargeBulk charges data-proportional optimized-kernel work (scaled by
// S), e.g. a per-block Gram accumulation that touches every data point.
func (t *Meter) ChargeBulk(flops float64) {
	t.addCompute(flops * t.cluster.cfg.Scale * t.prof.BulkFlopSec)
}

// ChargeBulkSerialAbs charges one large dense operation that cannot use
// the machine's cores (a single Cholesky on one vertex/driver thread).
func (t *Meter) ChargeBulkSerialAbs(flops float64) {
	t.serSec += t.prof.CallSec + flops*t.prof.BulkFlopSec
}

// ChargeSerialSec charges raw single-threaded seconds.
func (t *Meter) ChargeSerialSec(sec float64) { t.serSec += sec }

// SendData records data-proportional network transfer of realBytes real
// bytes (scaled by S) from this machine to machine dst. Local transfers
// are free.
func (t *Meter) SendData(dst int, realBytes float64) {
	t.send(dst, realBytes*t.cluster.cfg.Scale)
}

// SendModel records model-proportional (unscaled) network transfer.
func (t *Meter) SendModel(dst int, bytes float64) {
	t.send(dst, bytes)
}

func (t *Meter) send(dst int, bytes float64) {
	if bytes < 0 {
		panic("sim: negative send")
	}
	if dst == t.machine.id {
		return
	}
	t.sends = append(t.sends, sendRec{dst: dst, bytes: bytes})
}

// apply folds the meter's buffered charges into the phase accumulators.
// Called on the host goroutine, in global task order, so the floating-point
// summation order is identical for every host worker count.
func (t *Meter) apply(perMachinePar, perMachineSer []float64) {
	perMachinePar[t.machine.id] += t.parSec
	perMachineSer[t.machine.id] += t.serSec
	for _, s := range t.sends {
		t.machine.phaseSent += s.bytes
		t.cluster.machines[s.dst].phaseRecv += s.bytes
	}
}

// Count adds v to the named per-phase metric counter (keyed by the
// cluster's engine label and the active benchmark cell). No-op unless the
// cluster has a Tracer; buffered and applied at the phase barrier.
func (t *Meter) Count(name string, v float64) {
	if t.cluster.cfg.Tracer == nil {
		return
	}
	t.counts = append(t.counts, ctRec{name: name, val: v})
}

// flushTrace replays this task's buffered counter increments into the
// recorder at the phase barrier. Called on the host goroutine in global
// task order, only for tasks up to the failure cut, mirroring apply.
func (t *Meter) flushTrace(rec *trace.Recorder, phase string) {
	for _, s := range t.counts {
		rec.Count(phase, s.name, s.val)
	}
}

// AllocData charges a data-proportional simulated allocation of realBytes
// real bytes (scaled by S) against this machine's budget.
func (t *Meter) AllocData(realBytes int64, ctx string) error {
	return t.machine.Alloc(int64(float64(realBytes)*t.cluster.cfg.Scale), ctx)
}

// AllocModel charges a model-proportional (unscaled) simulated allocation.
func (t *Meter) AllocModel(bytes int64, ctx string) error {
	return t.machine.Alloc(bytes, ctx)
}

// Package sim provides the simulated compute-cluster substrate on which the
// five platform engines (dataflow, relational, gas, bsp, psengine) execute.
//
// The paper's experiments ran on Amazon EC2 m2.4xlarge clusters (8 virtual
// cores, 68 GB RAM per machine) of 5, 20 and 100 machines — hardware we do
// not have. Per the reproduction's substitution rule, this package models
// that hardware: a Cluster has N Machines, each with a core count, a
// byte-accounted memory budget, and a shared network with latency and
// bandwidth. Engines run *real* Go computation (the actual Gibbs sampling
// math on scale-reduced data) while charging *modelled* costs — per-tuple
// overheads, linear-algebra flops under a language Profile, shuffle bytes,
// and framework job-launch latencies — to a deterministic virtual clock.
//
// # Scale
//
// A Config.Scale of S means each simulated machine holds 1/S of the paper's
// per-machine data volume in real memory, and every data-proportional
// charge (tuples, flops, bytes shipped, bytes allocated) is multiplied by S
// before hitting the virtual clock and the memory accountant.
// Model-proportional state (the K Gaussians, the regression vector, the
// topic-word matrix) is charged unscaled — it is small in the paper and
// small here. Virtual times are therefore directly comparable to the
// paper's HH:MM:SS tables while real wall time stays laptop-sized.
//
// # Failure
//
// Machine.Alloc returns an *OOMError when a simulated allocation exceeds
// the per-machine budget; engines abort the current phase and surface the
// error, which the benchmark harness records as the paper's "Fail" cells.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mlbench/internal/faults"
	"mlbench/internal/randgen"
	"mlbench/internal/trace"
)

// logf is ln(n) for a positive machine count.
func logf(n int) float64 { return math.Log(float64(n)) }

// Network describes the simulated interconnect.
type Network struct {
	LatencySec  float64 // per communication round
	BytesPerSec float64 // point-to-point bandwidth per machine
}

// Config parameterizes a simulated cluster.
type Config struct {
	Machines int     // number of machines
	Cores    int     // cores per machine (EC2 m2.4xlarge: 8)
	MemBytes int64   // simulated RAM per machine (m2.4xlarge: 68 GB)
	Scale    float64 // data scale-down factor S (>= 1)
	Net      Network
	Cost     CostModel
	Seed     uint64
	// Tracer, when non-nil, receives a structured span/event stream of the
	// run (phase spans, per-machine task spans, overhead spans, fault
	// spans) plus the metrics engines emit through the Meter; see
	// internal/trace. All recording happens at phase barriers in
	// deterministic order, so traces are byte-identical at any HostWorkers
	// count.
	Tracer *trace.Recorder
	// Faults is the deterministic fault-injection schedule (nil = none);
	// see internal/faults and this package's faults.go.
	Faults *faults.Schedule
	// Recovery carries the engines' checkpoint/snapshot policies.
	Recovery RecoveryConfig
	// HostWorkers bounds how many host goroutines RunPhase uses to execute
	// simulated machines concurrently (0 = GOMAXPROCS, 1 = sequential).
	// Every virtual-clock number is byte-identical across worker counts;
	// see the "Host execution model" section of DESIGN.md.
	HostWorkers int
	// ChunkElems is the streamed-partition chunk size (see Source); 0
	// selects DefaultChunkElems. Like HostWorkers it is a host-side
	// execution knob: every table and trace is byte-identical at any
	// value, only peak resident memory and hand-off granularity change.
	ChunkElems int
	// Ctx, when non-nil, cancels the run: RunPhase checks it at phase
	// entry and between tasks, so an abandoned request stops burning host
	// workers mid-phase rather than at the next figure boundary. A
	// cancelled phase returns an error wrapping the context error;
	// virtual-clock state after a cancellation is undefined and must be
	// discarded. A cluster is request-scoped, which is why the context
	// lives in its Config rather than in every RunPhase signature.
	Ctx context.Context
	// Progress, when non-nil, is called on the host goroutine at every
	// phase barrier with the phase name and the virtual clock after the
	// barrier (including any fault settling). It runs host-sequentially in
	// deterministic order and must not mutate cluster state; the serving
	// layer uses it to stream per-iteration progress.
	Progress func(phase string, clockSec float64)
}

// DefaultConfig returns the paper's experimental platform: m2.4xlarge
// machines (8 cores, 68 GB) with the default cost model and a 1000x data
// scale-down.
func DefaultConfig(machines int) Config {
	return Config{
		Machines: machines,
		Cores:    8,
		MemBytes: 68 << 30,
		Scale:    1000,
		Net:      Network{LatencySec: 0.5e-3, BytesPerSec: 100e6},
		Cost:     DefaultCostModel(),
		Seed:     1,
	}
}

// OOMError reports a simulated out-of-memory condition on one machine.
type OOMError struct {
	Machine   int
	Requested int64
	Used      int64
	Cap       int64
	Context   string
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("sim: machine %d out of memory: requested %d bytes with %d/%d used (%s)",
		e.Machine, e.Requested, e.Used, e.Cap, e.Context)
}

// IsOOM reports whether err is (or wraps) a simulated out-of-memory error.
func IsOOM(err error) bool {
	var oom *OOMError
	return errors.As(err, &oom)
}

// Machine is one simulated node: a memory accountant plus a deterministic
// RNG substream.
type Machine struct {
	id      int
	cluster *Cluster
	memUsed int64
	rng     *randgen.RNG
	// Per-phase communication accumulators (simulated bytes).
	phaseSent float64
	phaseRecv float64
}

// MemUsed returns the current simulated allocation in bytes.
func (m *Machine) MemUsed() int64 { return m.memUsed }

// Alloc charges bytes of simulated memory, returning an *OOMError if the
// budget would be exceeded. ctx names the allocation for diagnostics.
func (m *Machine) Alloc(bytes int64, ctx string) error {
	if bytes < 0 {
		panic("sim: negative allocation")
	}
	if m.memUsed+bytes > m.cluster.cfg.MemBytes {
		return &OOMError{Machine: m.id, Requested: bytes, Used: m.memUsed, Cap: m.cluster.cfg.MemBytes, Context: ctx}
	}
	m.memUsed += bytes
	return nil
}

// Free releases a previous simulated allocation.
func (m *Machine) Free(bytes int64) {
	if bytes < 0 {
		panic("sim: negative free")
	}
	m.memUsed -= bytes
	if m.memUsed < 0 {
		m.memUsed = 0
	}
}

// Cluster is a simulated cluster with a virtual clock.
type Cluster struct {
	cfg      Config
	machines []*Machine
	clock    float64

	// Fault-injection state (see faults.go).
	crashes      []faults.Event
	stragglers   []faults.Event
	nextCrash    int
	onFault      FaultHandler
	faultLog     []FaultInfo
	inRecovery   bool
	stragglerCap float64

	// scratch is a free stack of per-phase working sets (see
	// phaseScratch). Phases on one cluster are host-sequential, but they
	// nest — RunDriver is a phase, and fault recovery runs phases from
	// inside RunPhase's fault settling — so reuse is a stack, not a
	// single slot: a nested phase pops its own scratch while the outer
	// one is still live.
	scratch []*phaseScratch
}

// phaseScratch holds RunPhase's per-phase allocations, recycled across
// phases so a 10,000-machine sweep does not reallocate ~10 slices plus
// one Meter per task every barrier.
type phaseScratch struct {
	perMachinePar []float64
	perMachineSer []float64
	computeSec    []float64
	commSec       []float64
	machineSec    []float64
	taskCount     []int
	groups        [][]int
	nonEmpty      []int
	states        []taskState
	meters        []Meter
}

// getScratch pops (or allocates) a scratch set sized for this cluster
// and task count. Machine-indexed slices are zeroed; groups are reset
// to empty per machine.
func (c *Cluster) getScratch(tasks int) *phaseScratch {
	var sc *phaseScratch
	if n := len(c.scratch); n > 0 {
		sc, c.scratch = c.scratch[n-1], c.scratch[:n-1]
	} else {
		sc = &phaseScratch{}
	}
	m := c.cfg.Machines
	sc.perMachinePar = resetFloats(sc.perMachinePar, m)
	sc.perMachineSer = resetFloats(sc.perMachineSer, m)
	sc.computeSec = resetFloats(sc.computeSec, m)
	sc.commSec = resetFloats(sc.commSec, m)
	sc.machineSec = resetFloats(sc.machineSec, m)
	if cap(sc.taskCount) < m {
		sc.taskCount = make([]int, m)
	}
	sc.taskCount = sc.taskCount[:m]
	for i := range sc.taskCount {
		sc.taskCount[i] = 0
	}
	if cap(sc.groups) < m {
		sc.groups = make([][]int, m)
	}
	sc.groups = sc.groups[:m]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
	sc.nonEmpty = sc.nonEmpty[:0]
	if cap(sc.states) < tasks {
		sc.states = make([]taskState, tasks)
		sc.meters = make([]Meter, tasks)
	}
	sc.states = sc.states[:tasks]
	sc.meters = sc.meters[:tasks]
	for i := range sc.states {
		sc.states[i] = taskState{}
	}
	return sc
}

// putScratch returns a scratch set to the free stack.
func (c *Cluster) putScratch(sc *phaseScratch) {
	c.scratch = append(c.scratch, sc)
}

// resetFloats returns a zeroed float slice of length n, reusing cap.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// New constructs a cluster. Zero-valued fields of cfg get sensible
// defaults (8 cores, 68 GB, scale 1, default cost model and network).
func New(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		panic("sim: cluster needs at least one machine")
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 68 << 30
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Net.BytesPerSec <= 0 {
		cfg.Net = Network{LatencySec: 0.5e-3, BytesPerSec: 100e6}
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	c := &Cluster{cfg: cfg}
	c.initFaults(cfg.Faults)
	root := randgen.New(cfg.Seed)
	c.machines = make([]*Machine, cfg.Machines)
	for i := range c.machines {
		c.machines[i] = &Machine{id: i, cluster: c, rng: root.Split(uint64(i))}
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumMachines returns the machine count.
func (c *Cluster) NumMachines() int { return c.cfg.Machines }

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine { return c.machines[i] }

// Scale returns the data scale-down factor S.
func (c *Cluster) Scale() float64 { return c.cfg.Scale }

// Now returns the virtual clock in seconds.
func (c *Cluster) Now() float64 { return c.clock }

// SetEngineLabel tags subsequently recorded metric samples with the
// running platform engine's name. Engines call it at construction; it is
// a no-op when tracing is off.
func (c *Cluster) SetEngineLabel(name string) {
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.SetEngine(name)
	}
}

// Advance moves the virtual clock forward, e.g. for a framework job-launch
// overhead that is not tied to any one machine.
func (c *Cluster) Advance(sec float64) { c.AdvanceNamed("advance", sec) }

// AdvanceNamed moves the virtual clock forward like Advance and, when
// tracing, records the interval as a named overhead span — this is how
// job launches, superstep latencies, and detection timeouts become
// attributable in a trace rather than anonymous clock jumps.
func (c *Cluster) AdvanceNamed(name string, sec float64) {
	if sec < 0 {
		panic("sim: negative clock advance")
	}
	if c.cfg.Tracer != nil && sec > 0 {
		c.cfg.Tracer.AddSpan(name, trace.CatOverhead, -1, c.clock, sec)
	}
	c.clock += sec
}

// Task is one unit of work in a phase, pinned to a machine.
//
// Run executes on a host worker goroutine, possibly concurrently with other
// machines' tasks; it must only touch its own machine's state (the Meter,
// the machine's RNG and memory accountant, and data partitioned to that
// machine). Merge, when set, runs on the host goroutine at the phase
// barrier, sequentially in global task order, receiving the same Meter the
// task ran with — it is the deterministic point at which a task may fold
// its results into state shared across machines. Charges made inside Merge
// are accounted exactly like charges made inside Run.
type Task struct {
	Machine int
	Run     func(*Meter) error
	Merge   func(*Meter) error
}

// taskState carries one task's buffered outcome from the worker pool to the
// barrier merge.
type taskState struct {
	meter    *Meter
	err      error
	panicked bool
	panicVal any
	ran      bool
}

// hostWorkers resolves the configured host-parallelism degree.
func (c *Cluster) hostWorkers() int {
	if c.cfg.HostWorkers > 0 {
		return c.cfg.HostWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// canceled returns the phase-abort error when the cluster's context is
// done, nil otherwise. Safe to call concurrently from worker goroutines.
func (c *Cluster) canceled(phase string) error {
	if c.cfg.Ctx == nil {
		return nil
	}
	if err := c.cfg.Ctx.Err(); err != nil {
		return fmt.Errorf("sim: phase %q canceled: %w", phase, err)
	}
	return nil
}

// IsCanceled reports whether err stems from a cancelled run context.
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// progress invokes the configured Progress hook with the current clock.
func (c *Cluster) progress(phase string) {
	if c.cfg.Progress != nil {
		c.cfg.Progress(phase, c.clock)
	}
}

// RunPhase executes a barrier-synchronized phase: all tasks run (grouped by
// machine, deterministically in submission order), their charged costs are
// converted to per-machine times, and the virtual clock advances by the
// slowest machine plus coordination overhead. Per-tuple and flop charges
// are treated as data-parallel across the machine's cores; serial charges
// are not divided.
//
// Execution is host-parallel: each simulated machine's task group runs on
// its own goroutine from a pool of Config.HostWorkers workers. Tasks buffer
// their charges in their Meter; at the barrier the host replays them in
// global task order, so every virtual-clock number is byte-identical across
// worker counts.
//
// A task error aborts the phase and is returned. Error selection is
// deterministic: the error of the lowest-indexed failing task wins, and the
// clock advances by the work of tasks up to and including that one —
// mimicking a failed job that dies mid-flight, independent of host timing.
// A failing machine's later tasks do not run; other machines' in-flight
// groups run to completion (keeping their RNG and memory state
// worker-count-independent) but any charges past the failure point are
// discarded.
//
// When a fault schedule is configured, straggle windows overlapping the
// phase inflate the victim's compute time, and crashes crossed by the
// clock during the phase are observed at its end: detection latency is
// charged and the engine's recovery handler runs (see faults.go). A
// recovery error — e.g. a simulated OOM while recomputing lost state —
// is returned exactly like a task error.
func (c *Cluster) RunPhase(name string, tasks []Task) error {
	if err := c.canceled(name); err != nil {
		return err
	}
	start := c.clock
	sc := c.getScratch(len(tasks))
	defer c.putScratch(sc)
	perMachinePar := sc.perMachinePar
	perMachineSer := sc.perMachineSer
	taskCount := sc.taskCount
	for _, m := range c.machines {
		m.phaseSent, m.phaseRecv = 0, 0
	}

	// Group task indices by machine, preserving submission order. A
	// machine's tasks run sequentially on one goroutine (they share the
	// machine's RNG and memory accountant); distinct machines run
	// concurrently.
	groups := sc.groups
	for i, t := range tasks {
		if t.Machine < 0 || t.Machine >= c.cfg.Machines {
			panic(fmt.Sprintf("sim: task assigned to machine %d of %d", t.Machine, c.cfg.Machines))
		}
		if len(groups[t.Machine]) == 0 {
			sc.nonEmpty = append(sc.nonEmpty, t.Machine)
		}
		groups[t.Machine] = append(groups[t.Machine], i)
	}

	states := sc.states
	runGroup := func(idxs []int) {
		for _, i := range idxs {
			st := &states[i]
			st.meter = &sc.meters[i]
			st.meter.reset(c.machines[tasks[i].Machine], c)
			if err := c.canceled(name); err != nil {
				st.err = err
				st.ran = true
				break
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						st.panicked = true
						st.panicVal = p
					}
				}()
				st.err = tasks[i].Run(st.meter)
			}()
			st.ran = true
			if st.err != nil || st.panicked {
				break // this machine stops at its first failure
			}
		}
	}
	// Shard the machine groups over a bounded worker pool: workers
	// goroutines pull group indices from a shared counter. One goroutine
	// per non-empty machine (the previous scheme) meant 10,000 goroutines
	// per phase on a 10,000-machine sweep; the pool keeps host cost
	// proportional to HostWorkers while the atomic counter preserves the
	// per-group sequential execution that byte-identity rests on.
	workers := c.hostWorkers()
	if workers > len(sc.nonEmpty) {
		workers = len(sc.nonEmpty)
	}
	if workers <= 1 {
		for _, mi := range sc.nonEmpty {
			runGroup(groups[mi])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sc.nonEmpty) {
						return
					}
					runGroup(groups[sc.nonEmpty[i]])
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic selection: re-raise the lowest-indexed panic, exactly
	// as sequential execution would have surfaced it first.
	for i := range states {
		if states[i].panicked {
			panic(states[i].panicVal)
		}
	}

	// Barrier merge, in global task order: run Merge hooks and replay each
	// task's buffered charges. The lowest-indexed task error wins; work
	// past it is discarded. lastApplied marks the cut so buffered trace
	// counters of discarded tasks are dropped with their charges.
	var firstErr error
	lastApplied := -1
	for i := range tasks {
		st := &states[i]
		if !st.ran {
			continue // skipped after its own machine's earlier failure
		}
		if st.err != nil {
			st.meter.apply(perMachinePar, perMachineSer)
			taskCount[tasks[i].Machine]++
			lastApplied = i
			firstErr = st.err
			break
		}
		if tasks[i].Merge != nil {
			if err := tasks[i].Merge(st.meter); err != nil {
				st.meter.apply(perMachinePar, perMachineSer)
				taskCount[tasks[i].Machine]++
				lastApplied = i
				firstErr = err
				break
			}
		}
		st.meter.apply(perMachinePar, perMachineSer)
		taskCount[tasks[i].Machine]++
		lastApplied = i
	}

	// Baseline per-machine times, before straggler inflation.
	computeSec := sc.computeSec
	commSec := sc.commSec
	machineSec := sc.machineSec
	var baseWorst float64
	active := 0
	for i, m := range c.machines {
		if taskCount[i] == 0 && m.phaseSent == 0 && m.phaseRecv == 0 {
			continue
		}
		active++
		computeSec[i] = perMachinePar[i]/float64(c.cfg.Cores) + perMachineSer[i]
		if m.phaseSent > 0 || m.phaseRecv > 0 {
			bytes := m.phaseSent
			if m.phaseRecv > bytes {
				bytes = m.phaseRecv
			}
			commSec[i] = c.cfg.Net.LatencySec + bytes/c.cfg.Net.BytesPerSec
		}
		if total := computeSec[i] + commSec[i]; total > baseWorst {
			baseWorst = total
		}
	}
	// Injected stragglers slow their victim's compute over the phase's
	// execution window; the barrier then waits for the slowest machine.
	// Inflation can push the phase's end past the start of a later straggle
	// window, which then overlaps the phase too, so the window end is
	// iterated to a fixed point (factors only grow as the window widens, so
	// the iteration is monotone; the pass cap is a safety net).
	var worst, worstCompute, worstComm float64
	evalEnd := start + baseWorst
	for pass := 0; pass < 8; pass++ {
		worst, worstCompute, worstComm = 0, 0, 0
		for i := range c.machines {
			if taskCount[i] == 0 && commSec[i] == 0 {
				continue
			}
			cs := computeSec[i]
			if len(c.stragglers) > 0 {
				cs *= c.straggleFactor(i, start, evalEnd)
			}
			machineSec[i] = cs + commSec[i]
			if machineSec[i] > worst {
				worst, worstCompute, worstComm = machineSec[i], cs, commSec[i]
			}
		}
		if len(c.stragglers) == 0 || start+worst <= evalEnd {
			break
		}
		evalEnd = start + worst
	}
	straggle := 1.0
	if active > 1 && c.cfg.Cost.StragglerLogFactor > 0 {
		straggle += c.cfg.Cost.StragglerLogFactor * logf(active)
	}
	dur := worst*straggle + c.cfg.Cost.PhaseBase + c.cfg.Cost.BarrierPerMachine*float64(active)
	c.clock += dur
	if rec := c.cfg.Tracer; rec != nil {
		c.emitPhaseTrace(rec, name, start, dur, worstCompute, worstComm,
			len(tasks), active, machineSec, computeSec, commSec, taskCount, evalEnd)
		// Replay buffered engine counters at the barrier in global task
		// order, honouring the failure cut exactly like charges.
		for i := 0; i <= lastApplied; i++ {
			if states[i].ran {
				states[i].meter.flushTrace(rec, name)
			}
		}
	}
	if firstErr == nil && len(c.crashes) > 0 {
		if err := c.settleFaults(name, start, machineSec); err != nil {
			c.progress(name)
			return err
		}
	}
	c.progress(name)
	return firstErr
}

// emitPhaseTrace records the structured view of one finished phase: a
// cluster-wide "phase" span covering the whole barrier-to-barrier
// interval, plus one "task" span per participating machine covering its
// busy interval (compute + comm), annotated with the barrier wait and any
// straggler inflation. Only phase and overhead spans count toward the
// clock identity (trace.Recorder.ClockSum); task spans overlap them.
// Built-in per-phase counters (phase_sec, tasks, bytes, compute/comm/wait
// time) land in the metrics registry under the current engine label.
func (c *Cluster) emitPhaseTrace(rec *trace.Recorder, name string, start, dur, worstCompute, worstComm float64,
	tasks, active int, machineSec, computeSec, commSec []float64, taskCount []int, evalEnd float64) {
	var sentTotal, recvTotal, computeTotal, commTotal, waitTotal float64
	for i, m := range c.machines {
		if taskCount[i] == 0 && commSec[i] == 0 {
			continue
		}
		cs := machineSec[i] - commSec[i] // compute after straggler inflation
		args := []trace.Arg{
			trace.A("compute_sec", cs),
			trace.A("comm_sec", commSec[i]),
			trace.A("wait_sec", dur-machineSec[i]),
		}
		if len(c.stragglers) > 0 {
			if f := c.straggleFactor(i, start, evalEnd); f > 1 {
				args = append(args, trace.A("straggle_factor", f))
				rec.AddEvent("straggle", trace.KindFault, i, start,
					trace.A("factor", f), trace.A("inflation_sec", cs-computeSec[i]))
			}
		}
		rec.AddSpan(name, trace.CatTask, i, start, machineSec[i], args...)
		sentTotal += m.phaseSent
		recvTotal += m.phaseRecv
		computeTotal += cs
		commTotal += commSec[i]
		waitTotal += dur - machineSec[i]
	}
	rec.AddSpan(name, trace.CatPhase, -1, start, dur,
		trace.A("compute_sec", worstCompute),
		trace.A("comm_sec", worstComm),
		trace.A("tasks", float64(tasks)),
		trace.A("machines", float64(active)))
	rec.Count(name, "phase_sec", dur)
	rec.Count(name, "tasks", float64(tasks))
	rec.Count(name, "compute_sec", computeTotal)
	rec.Count(name, "barrier_wait_sec", waitTotal)
	if sentTotal > 0 {
		rec.Count(name, "bytes_sent", sentTotal)
	}
	if recvTotal > 0 {
		rec.Count(name, "bytes_recv", recvTotal)
	}
	if commTotal > 0 {
		rec.Count(name, "comm_sec", commTotal)
	}
}

// RunPhaseF runs a phase with exactly one task per machine, built by fn.
func (c *Cluster) RunPhaseF(name string, fn func(machine int, m *Meter) error) error {
	tasks := make([]Task, c.cfg.Machines)
	for i := range tasks {
		i := i
		tasks[i] = Task{Machine: i, Run: func(m *Meter) error { return fn(i, m) }}
	}
	return c.RunPhase(name, tasks)
}

// RunPhaseFM runs a phase with one task per machine plus a per-machine
// Merge hook: run executes concurrently (machine-local state only), merge
// executes at the barrier, sequentially in machine order, and may touch
// cross-machine state (see Task.Merge).
func (c *Cluster) RunPhaseFM(name string, run, merge func(machine int, m *Meter) error) error {
	tasks := make([]Task, c.cfg.Machines)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Machine: i,
			Run:     func(m *Meter) error { return run(i, m) },
			Merge:   func(m *Meter) error { return merge(i, m) },
		}
	}
	return c.RunPhase(name, tasks)
}

// RunDriver runs driver-side (single-machine, serial) work on machine 0,
// advancing the clock by the serial time plus any communication.
func (c *Cluster) RunDriver(name string, fn func(*Meter) error) error {
	return c.RunPhase(name, []Task{{Machine: 0, Run: func(m *Meter) error {
		m.Serial()
		return fn(m)
	}}})
}

// TotalMemUsed sums simulated allocations across all machines (for tests).
func (c *Cluster) TotalMemUsed() int64 {
	var s int64
	for _, m := range c.machines {
		s += m.memUsed
	}
	return s
}

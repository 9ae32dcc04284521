// Package psengine simulates the asynchronous parameter-server paradigm —
// the architecture the field converged on one platform generation after
// the paper's four systems. The model lives range-partitioned across N
// server shards; every machine is also a worker that runs
// pull -> compute -> push cycles against a locally cached copy of the
// model that may be up to s cycles stale (the stale-synchronous-parallel
// bound of LightLDA-style systems, see PAPERS.md: "LightLDA: Big Topic
// Models on Modest Compute Clusters"). With s=0 every cycle waits for
// the freshest model and the engine degenerates to BSP, which is what
// lets the cross-engine equivalence battery certify its chains against
// Giraph's; with s>0 the chains drift in a bounded, certifiable way
// (PAPERS.md: DG-LMC's analysis of distributed MCMC under bounded
// asynchrony).
//
// Everything runs under sim.RunPhase: worker compute is real Go work on
// machine-local state, server-side folds happen in the barrier's
// deterministic machine-order merge, and the staleness schedule is a
// pure function of (worker, cycle) that consumes no RNG — so host-parallel
// execution stays byte-identical at any -workers setting.
package psengine

import (
	"fmt"
	"strconv"

	"mlbench/internal/sim"
)

// Config parameterizes the engine.
type Config struct {
	// Shards is the number of server shards the model is range-partitioned
	// across. Each shard has a primary host (machine shard mod M) and a hot
	// standby ((shard+1) mod M) that receives every aggregated delta, so a
	// crashed server machine can be re-replicated without a global rollback.
	// 0 means one shard per machine (fully sharded).
	Shards int
	// Staleness is the stale-synchronous-parallel bound s: a worker may
	// compute against a cached model up to s cycles old. 0 means every
	// worker sees the freshest model every cycle (BSP-equivalent).
	Staleness int
}

func (c Config) withDefaults(machines int) Config {
	if c.Shards <= 0 || c.Shards > machines {
		c.Shards = machines
	}
	if c.Staleness < 0 {
		c.Staleness = 0
	}
	return c
}

// Engine is one parameter-server deployment on a cluster. Machines are
// symmetric: every machine runs a worker, and server shards are spread
// across the same machines (co-located, as LightLDA deploys).
type Engine struct {
	cl         *sim.Cluster
	cfg        Config
	cycle      int   // completed pull -> compute -> push cycles
	modelBytes int64 // full model size registered via AllocModel
}

// New builds an engine on cl and registers its fault handler and trace
// label. Shards defaults to one per machine.
func New(cl *sim.Cluster, cfg Config) *Engine {
	e := &Engine{cl: cl, cfg: cfg.withDefaults(cl.NumMachines())}
	cl.SetEngineLabel("ps")
	cl.SetFaultHandler(e.recover)
	return e
}

// Staleness returns the effective staleness bound.
func (e *Engine) Staleness() int { return e.cfg.Staleness }

// shardHost returns the primary host machine of a shard.
func (e *Engine) shardHost(shard int) int { return shard % e.cl.NumMachines() }

// standbyHost returns the hot-standby machine of a shard.
func (e *Engine) standbyHost(shard int) int { return (shard + 1) % e.cl.NumMachines() }

// shardsOn returns how many shard primaries machine m hosts.
func (e *Engine) shardsOn(m int) int {
	n := 0
	for s := 0; s < e.cfg.Shards; s++ {
		if e.shardHost(s) == m {
			n++
		}
	}
	return n
}

// standbysOn returns how many shard standbys machine m hosts.
func (e *Engine) standbysOn(m int) int {
	n := 0
	for s := 0; s < e.cfg.Shards; s++ {
		if e.standbyHost(s) == m {
			n++
		}
	}
	return n
}

// lag returns worker w's cache staleness for the current cycle: a
// deterministic round-robin over [0, s] so that every worker sweeps every
// admissible lag (the adversarial schedule a real asynchronous system
// could produce under the SSP bound), phase-shifted by worker so the
// cluster is never uniformly stale. It is a pure function of (worker,
// cycle) and consumes no RNG, which keeps machine RNG streams identical
// to the BSP engine's. The clamp means no worker is ever staler than the
// initial model.
func (e *Engine) lag(worker int) int {
	l := (worker + e.cycle) % (e.cfg.Staleness + 1)
	if l > e.cycle {
		l = e.cycle
	}
	return l
}

// Load runs fn on every machine concurrently — partition scans, data
// allocation, and any other embarrassingly parallel setup.
func (e *Engine) Load(name string, fn func(machine int, m *sim.Meter) error) error {
	return e.cl.RunPhaseF(name, fn)
}

// Reduce runs a machine-parallel phase followed by a deterministic
// machine-order merge at the barrier — the shape of one-shot global
// aggregations like the Lasso Gram fold.
func (e *Engine) Reduce(name string, run, merge func(machine int, m *sim.Meter) error) error {
	return e.cl.RunPhaseFM(name, run, merge)
}

// AllocModel accounts the model's resident memory across the deployment:
// every worker holds a full cached copy, every shard primary holds its
// parameter range, and every hot standby holds a replica of that range.
func (e *Engine) AllocModel(bytes int64) error {
	e.modelBytes = bytes
	per := bytes / int64(e.cfg.Shards)
	return e.cl.RunPhaseF("ps-alloc-model", func(machine int, m *sim.Meter) error {
		total := bytes + per*int64(e.shardsOn(machine)+e.standbysOn(machine))
		return m.AllocModel(total, "ps model cache+shards")
	})
}

// Cycle describes one pull -> compute -> push round.
//
// Setup runs on the driver before workers start (e.g. the Lasso beta
// draw); Compute runs machine-parallel, receiving the model version the
// worker's cache holds; Fold merges worker state at the barrier in
// machine order (the server-side aggregation — deterministic, so the
// virtual clock and the chains are independent of host parallelism);
// Apply runs on the driver after the fold (the global parameter redraw).
type Cycle struct {
	Name string
	// PullBytes is the full model size a worker pulls to refresh its
	// cache. Under staleness s a cache is refreshed every s+1 cycles, so
	// the per-cycle wire cost is PullBytes/(s+1).
	PullBytes float64
	// PushBytes is the size of one worker's delta push per cycle. Each
	// aggregated shard delta is additionally replicated to the shard's hot
	// standby.
	PushBytes float64
	Setup     func(m *sim.Meter) error
	Compute   func(worker, version int, m *sim.Meter) error
	Fold      func(worker int, m *sim.Meter) error
	Apply     func(m *sim.Meter) error
}

// RunCycle executes one cycle and advances the engine's cycle counter.
func (e *Engine) RunCycle(c Cycle) error {
	if c.Compute == nil {
		return fmt.Errorf("psengine: cycle %q has no Compute", c.Name)
	}
	if c.Setup != nil {
		if err := e.cl.RunDriver(c.Name+"-setup", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			return c.Setup(m)
		}); err != nil {
			return err
		}
	}
	cost := e.cl.Config().Cost
	launch := cost.PSCycleAsyncSec
	if e.cfg.Staleness == 0 {
		// s=0 is a synchronous round: every worker blocks on the freshest
		// model, which costs a BSP-like coordination round trip.
		launch = cost.PSCycleSyncSec
	}
	e.cl.AdvanceNamed("ps-cycle-launch", launch)
	err := e.cl.RunPhaseFM(c.Name,
		func(w int, m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			lag := e.lag(w)
			e.chargeComm(c, w, lag, m)
			return c.Compute(w, e.cycle-lag, m)
		},
		func(w int, m *sim.Meter) error {
			if c.Fold == nil {
				return nil
			}
			return c.Fold(w, m)
		})
	if err != nil {
		return err
	}
	if c.Apply != nil {
		if err := e.cl.RunDriver(c.Name+"-apply", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			return c.Apply(m)
		}); err != nil {
			return err
		}
	}
	e.cycle++
	return nil
}

// chargeComm accounts machine w's wire and server-side costs for one
// cycle. Every machine plays two roles: as a worker it pushes its delta
// to every remote shard primary and (amortized) refreshes its cache; as
// a shard host it serves pulls to every other worker, folds the M
// incoming deltas into its range, and replicates the aggregated delta to
// the hot standby. All charges go through the Meter, so they are
// buffered and replayed deterministically at the barrier.
func (e *Engine) chargeComm(c Cycle, w, lag int, m *sim.Meter) {
	machines := e.cl.NumMachines()
	shards := float64(e.cfg.Shards)
	pullEff := c.PullBytes / float64(e.cfg.Staleness+1)

	// Worker role: range-partitioned delta push (local shard portions are
	// free — SendModel to self is a no-op).
	for s := 0; s < e.cfg.Shards; s++ {
		m.SendModel(e.shardHost(s), c.PushBytes/shards)
	}
	m.Count("push_bytes", c.PushBytes)
	m.Count("pull_bytes", pullEff)
	m.Count("stale_lag_"+strconv.Itoa(lag), 1)

	// Server role: serve cache refreshes, fold incoming deltas, replicate
	// to the standby.
	cost := e.cl.Config().Cost
	for s := 0; s < e.cfg.Shards; s++ {
		if e.shardHost(s) != w {
			continue
		}
		for dst := 0; dst < machines; dst++ {
			if dst != w {
				m.SendModel(dst, pullEff/shards)
			}
		}
		m.SendModel(e.standbyHost(s), c.PushBytes/shards)
		// The shard fold is a single-threaded dense accumulation over the
		// M worker deltas for this range.
		aggBytes := c.PushBytes / shards * float64(machines)
		m.ChargeSerialSec(aggBytes / cost.PSServerBytesPerSec)
	}
}

// FoldDense accumulates a dense delta slice into a server shard's
// parameter range: dst[i] += delta[i]. This is the server-side
// aggregation hot path the task implementations call from their Fold
// hooks (and the kernel the perfgate micro benchmarks).
func FoldDense(dst, delta []float64) {
	if len(dst) != len(delta) {
		panic(fmt.Sprintf("psengine: FoldDense length mismatch %d != %d", len(dst), len(delta)))
	}
	for i, v := range delta {
		dst[i] += v
	}
}

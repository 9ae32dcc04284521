// Package bsp implements a Giraph-like bulk synchronous parallel engine on
// the simulated cluster: supersteps, per-vertex message delivery, optional
// sender-side combiners, master aggregators, and worker-shared values (the
// aggregator-based "broadcast" the paper's Giraph codes use to ship the
// model without recording edges).
//
// Memory model. Giraph runs in the JVM: buffered messages pay an
// object-overhead multiplier (CostModel.BSPHeapFactor); vertex state is
// charged at caller-declared sizes (which include boxing where the
// formulation boxes). Of a
// superstep's per-vertex message traffic, the fraction resident in
// receiver heaps simultaneously grows with cluster size
// (M / (M + BSPInflightHalfM)): with few peers flow control drains buffers
// quickly, while large clusters synchronize flushes across many peers and
// hold much more in flight. Together these reproduce the paper's Giraph
// behaviour: fast when it runs, but "memory was an issue on the largest
// problems" — failures at 100 machines (GMM, LDA, imputation), on
// 100-dimensional data, and on every word-granularity and non-super-vertex
// Lasso configuration.
package bsp

import (
	"fmt"

	"mlbench/internal/ordmap"
	"mlbench/internal/sim"
)

// VertexID identifies a vertex.
type VertexID int64

// Vertex is one BSP vertex: user state plus placement and accounting
// metadata.
type Vertex struct {
	ID   VertexID
	Data any
	// Bytes is the simulated size of the vertex state (before the JVM
	// heap factor).
	Bytes int64
	// Scaled marks data-proportional vertices.
	Scaled  bool
	machine int
}

// Machine returns the machine hosting the vertex.
func (v *Vertex) Machine() int { return v.machine }

// Msg is one message: an opaque payload plus its simulated wire size.
type Msg struct {
	Data  any
	Bytes int64
}

// Combiner merges two messages bound for the same destination vertex from
// the same source machine (Giraph's sender-side combining).
type Combiner func(a, b Msg) Msg

// Compute is the per-vertex user function, run once per superstep for
// every active vertex. Messages sent in superstep i are delivered in
// superstep i+1.
type Compute func(ctx *Context, v *Vertex, msgs []Msg) error

// pending is a queued message with its simulated multiplicity applied.
type pending struct {
	msg      Msg
	simBytes float64
	src      int // source machine
}

// Graph is a BSP graph bound to a cluster.
type Graph struct {
	c        *sim.Cluster
	verts    *ordmap.Map[VertexID, *Vertex]
	byMach   [][]*Vertex
	combiner Combiner
	loaded   bool
	step     int

	// queue[dst vertex] = messages to deliver next superstep.
	queue *ordmap.Map[VertexID, []pending]
	// aggregates from the previous superstep (master-merged sums).
	aggPrev map[string]float64
	aggCur  map[string]float64
	// shared values (aggregator-broadcast model state).
	shared      map[string]any
	sharedBytes map[string]int64
	sharedAlloc int64 // per-machine resident bytes for shared values

	// Fault-recovery state (see recover.go): checkpoint every ckptEvery
	// supersteps; a crash rolls the whole cluster back to the last
	// checkpoint (or a reload) and replays the supersteps since.
	ckptEvery      int
	loadSec        float64   // measured graph-load time (restart basis)
	stepSecs       []float64 // superstep durations since last checkpoint
	ckptRestoreSec float64
	haveCkpt       bool
}

// NewGraph creates an empty BSP graph on the cluster. The graph owns crash
// recovery for its cluster: checkpoint rollback and superstep replay
// (recover.go), with the checkpoint interval initialized from the cluster
// config's Recovery.BSPCheckpointEvery.
func NewGraph(c *sim.Cluster) *Graph {
	g := &Graph{
		c:           c,
		verts:       ordmap.New[VertexID, *Vertex](),
		byMach:      make([][]*Vertex, c.NumMachines()),
		queue:       ordmap.New[VertexID, []pending](),
		aggPrev:     map[string]float64{},
		aggCur:      map[string]float64{},
		shared:      map[string]any{},
		sharedBytes: map[string]int64{},
		ckptEvery:   c.Config().Recovery.BSPCheckpointEvery,
	}
	c.SetFaultHandler(g.handleFault)
	c.SetEngineLabel("giraph")
	return g
}

// SetCombiner installs a sender-side message combiner.
func (g *Graph) SetCombiner(c Combiner) { g.combiner = c }

// AddVertex inserts a vertex, placed by id hash unless machine >= 0.
func (g *Graph) AddVertex(id VertexID, data any, bytes int64, scaled bool, machine int) *Vertex {
	if g.loaded {
		panic("bsp: AddVertex after Load")
	}
	if machine < 0 {
		machine = int(uint64(id*2654435761) % uint64(len(g.byMach)))
	}
	v := &Vertex{ID: id, Data: data, Bytes: bytes, Scaled: scaled, machine: machine}
	g.verts.Set(id, v)
	g.byMach[machine] = append(g.byMach[machine], v)
	return v
}

// Vertex returns the vertex with the given id, or nil.
func (g *Graph) Vertex(id VertexID) *Vertex {
	v, _ := g.verts.Get(id)
	return v
}

// Load finalizes the graph, charging vertex state (with the JVM heap
// factor) against machine memory.
func (g *Graph) Load() error {
	if g.loaded {
		return nil
	}
	t0, rec0 := g.c.Now(), recoveredSec(g.c)
	err := g.c.RunPhaseF("bsp-load", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileJava)
		for _, v := range g.byMach[machine] {
			// Vertex state is charged as given: callers size their
			// vertices with JVM boxing included where it applies (the
			// heap factor covers message buffers, which the engine owns).
			bytes := v.Bytes
			if v.Scaled {
				m.ChargeTuples(1)
				if err := m.AllocData(bytes, "bsp vertex"); err != nil {
					return err
				}
			} else {
				m.ChargeTuplesAbs(1)
				if err := m.AllocModel(bytes, "bsp vertex"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.loaded = true
	g.loadSec = (g.c.Now() - t0) - (recoveredSec(g.c) - rec0)
	return nil
}

// Context is the per-vertex compute environment.
type Context struct {
	g     *Graph
	meter *sim.Meter
	v     *Vertex
	// staged sends from this machine, combined per destination.
	stage *ordmap.Map[VertexID, pending]
	// agg buffers this machine's aggregator contributions; machines may
	// compute concurrently, so the global sums are merged at the barrier
	// in machine order.
	agg *ordmap.Map[string, float64]
	// shared buffers this machine's SetShared publications, applied at the
	// barrier in machine order (last machine wins, as under sequential
	// execution).
	shared *ordmap.Map[string, sharedVal]
}

// sharedVal is one staged worker-shared publication.
type sharedVal struct {
	value any
	bytes int64
}

// Meter exposes the task meter for user-code cost charging.
func (ctx *Context) Meter() *sim.Meter { return ctx.meter }

// Send enqueues a message for delivery to dst in the next superstep.
// bytes is the wire size of the payload. The simulated multiplicity is
// the cluster scale factor when either endpoint is data-proportional.
func (ctx *Context) Send(dst VertexID, data any, bytes int64) {
	dstV := ctx.g.Vertex(dst)
	if dstV == nil {
		panic(fmt.Sprintf("bsp: send to unknown vertex %d", dst))
	}
	mult := 1.0
	if ctx.v.Scaled || dstV.Scaled {
		mult = ctx.g.c.Scale()
	}
	msg := Msg{Data: data, Bytes: bytes}
	p := pending{msg: msg, simBytes: float64(bytes) * mult, src: ctx.v.machine}
	if ctx.g.combiner != nil {
		if prev, ok := ctx.stage.Get(dst); ok && prev.src == p.src {
			// Combining collapses the sender-side multiplicity (all of a
			// machine's paper-scale messages to this destination become
			// one), but a scaled destination still stands for Scale
			// paper vertices that each receive their own copy.
			combined := ctx.g.combiner(prev.msg, msg)
			dstMult := 1.0
			if dstV.Scaled {
				dstMult = ctx.g.c.Scale()
			}
			ctx.stage.Set(dst, pending{msg: combined, simBytes: float64(combined.Bytes) * dstMult, src: p.src})
			ctx.meter.ChargeTuplesAbs(mult) // combining work per original message
			return
		}
	}
	// Without a combiner every message is staged individually; with one,
	// the first message to a destination seeds the stage entry.
	if ctx.g.combiner != nil {
		ctx.stage.Set(dst, p)
	} else {
		key := dst
		if prev, ok := ctx.stage.Get(key); ok {
			// Chain uncombined messages via a list in Data.
			list, _ := prev.msg.Data.([]Msg)
			if list == nil {
				list = []Msg{prev.msg}
			}
			list = append(list, msg)
			ctx.stage.Set(key, pending{
				msg:      Msg{Data: list, Bytes: prev.msg.Bytes + bytes},
				simBytes: prev.simBytes + p.simBytes,
				src:      p.src,
			})
		} else {
			ctx.stage.Set(key, p)
		}
	}
	ctx.meter.ChargeTuplesAbs(mult)
}

// Aggregate adds v into the named global sum aggregator; the master-merged
// total is visible next superstep via Agg.
func (ctx *Context) Aggregate(name string, v float64) {
	mult := 1.0
	if ctx.v.Scaled {
		mult = ctx.g.c.Scale()
	}
	old, _ := ctx.agg.Get(name)
	ctx.agg.Set(name, old+v*mult)
	ctx.meter.ChargeTuplesAbs(mult)
}

// Agg returns the previous superstep's merged value of the named
// aggregator (0 if never set).
func (ctx *Context) Agg(name string) float64 { return ctx.g.aggPrev[name] }

// SetShared publishes a worker-shared value (the aggregator-based model
// "broadcast" of the paper's Giraph codes): after this superstep every
// machine holds one copy, charged against its memory.
func (ctx *Context) SetShared(name string, value any, bytes int64) {
	ctx.shared.Set(name, sharedVal{value: value, bytes: bytes})
}

// Shared returns a worker-shared value published in an earlier superstep.
func (ctx *Context) Shared(name string) any { return ctx.g.shared[name] }

// RunSuperstep delivers queued messages, runs compute on every active
// vertex, and stages the next round of messages. It returns the first
// error, typically a simulated OOM from message buffering.
func (g *Graph) RunSuperstep(compute Compute) error {
	if !g.loaded {
		return fmt.Errorf("bsp: RunSuperstep before Load")
	}
	cost := g.c.Config().Cost
	if g.ckptEvery > 0 && g.step > 0 && g.step%g.ckptEvery == 0 {
		if err := g.checkpoint(); err != nil {
			return err
		}
	}
	t0, rec0 := g.c.Now(), recoveredSec(g.c)
	g.c.AdvanceNamed("bsp-superstep-launch", cost.BSPSuperstep)
	machines := g.c.NumMachines()
	inflight := float64(machines) / (float64(machines) + cost.BSPInflightHalfM)

	// Group queued messages by destination machine and compute resident
	// buffer sizes.
	inbox := make([]*ordmap.Map[VertexID, []Msg], machines)
	resident := make([]float64, machines)
	for i := range inbox {
		inbox[i] = ordmap.New[VertexID, []Msg]()
	}
	g.queue.Each(func(dst VertexID, ps []pending) {
		v := g.Vertex(dst)
		msgs := make([]Msg, 0, len(ps))
		for _, p := range ps {
			if list, ok := p.msg.Data.([]Msg); ok {
				msgs = append(msgs, list...)
			} else {
				msgs = append(msgs, p.msg)
			}
			resident[v.machine] += p.simBytes
		}
		inbox[v.machine].Set(dst, msgs)
	})
	g.queue = ordmap.New[VertexID, []pending]()

	// Rotate aggregators.
	g.aggPrev = g.aggCur
	g.aggCur = map[string]float64{}

	stages := make([]*ordmap.Map[VertexID, pending], machines)
	aggStages := make([]*ordmap.Map[string, float64], machines)
	sharedStages := make([]*ordmap.Map[string, sharedVal], machines)
	heap := cost.BSPHeapFactor
	err := g.c.RunPhaseF(fmt.Sprintf("bsp-superstep-%d", g.step), func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileJava)
		// Resident message buffers: the in-flight fraction of this
		// machine's incoming traffic, with JVM overhead.
		buf := int64(resident[machine] * inflight * heap)
		if err := m.Machine().Alloc(buf, "bsp message buffers"); err != nil {
			return err
		}
		defer m.Machine().Free(buf)
		stage := ordmap.New[VertexID, pending]()
		stages[machine] = stage
		agg := ordmap.New[string, float64]()
		aggStages[machine] = agg
		shared := ordmap.New[string, sharedVal]()
		sharedStages[machine] = shared
		for _, v := range g.byMach[machine] {
			msgs, _ := inbox[machine].Get(v.ID)
			if v.Scaled {
				m.ChargeTuples(1 + len(msgs))
			} else {
				m.ChargeTuplesAbs(float64(1 + len(msgs)))
			}
			ctx := &Context{g: g, meter: m, v: v, stage: stage, agg: agg, shared: shared}
			if err := compute(ctx, v, msgs); err != nil {
				return err
			}
		}
		// Network for staged sends (combined volume).
		var msgCount, msgBytes float64
		stage.Each(func(dst VertexID, p pending) {
			dm := g.Vertex(dst).machine
			if dm != machine {
				m.SendModel(dm, p.simBytes)
				msgCount++
				msgBytes += p.simBytes
			}
		})
		if msgCount > 0 {
			m.Count("messages", msgCount)
			m.Count("message_bytes", msgBytes)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Merge stages into the next queue, deterministically by machine.
	for _, stage := range stages {
		if stage == nil {
			continue
		}
		stage.Each(func(dst VertexID, p pending) {
			old, _ := g.queue.Get(dst)
			g.queue.Set(dst, append(old, p))
		})
	}
	// Merge aggregator and shared-value stages, in machine order.
	for _, a := range aggStages {
		if a == nil {
			continue
		}
		a.Each(func(name string, v float64) { g.aggCur[name] += v })
	}
	for _, s := range sharedStages {
		if s == nil {
			continue
		}
		s.Each(func(name string, sv sharedVal) {
			g.shared[name] = sv.value
			g.sharedBytes[name] = sv.bytes
		})
	}
	// Distribute shared values: one copy per machine.
	if err := g.settleShared(); err != nil {
		return err
	}
	// Record the superstep's duration (minus any recovery settled within
	// it) as rollback-replay basis.
	g.stepSecs = append(g.stepSecs, (g.c.Now()-t0)-(recoveredSec(g.c)-rec0))
	g.step++
	return nil
}

// settleShared charges the per-machine residence and distribution of
// worker-shared values.
func (g *Graph) settleShared() error {
	var total int64
	for _, b := range g.sharedBytes {
		total += b
	}
	if total == g.sharedAlloc {
		return nil
	}
	delta := total - g.sharedAlloc
	err := g.c.RunPhaseF("bsp-shared", func(machine int, m *sim.Meter) error {
		if delta > 0 {
			if machine > 0 {
				m.SendModel((machine+1)%g.c.NumMachines(), float64(delta))
			}
			return m.AllocModel(delta, "bsp shared values")
		}
		m.Machine().Free(-delta)
		return nil
	})
	if err != nil {
		return err
	}
	g.sharedAlloc = total
	return nil
}

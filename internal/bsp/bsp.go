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
	// slot is the vertex's insertion index, its row in the graph's
	// per-vertex queue arrays.
	slot int32
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

// Graph is a BSP graph bound to a cluster.
type Graph struct {
	c        *sim.Cluster
	verts    map[VertexID]*Vertex
	byMach   [][]*Vertex
	combiner Combiner
	loaded   bool
	step     int

	// stages[machine] buffers the machine's sends of the running
	// superstep; the buffers are reused across supersteps.
	stages []stage
	// The queue of messages to deliver next superstep, flat: destination
	// v's messages and their simulated sizes are qMsg and qSim at
	// [qStart[v.slot], qStart[v.slot]+qLen[v.slot]), in machine order.
	// qOrder lists the destinations in first-queued order. qStart and
	// qLen are indexed by slot and reused across supersteps.
	qOrder       []*Vertex
	qStart, qLen []int32
	qMsg         []Msg
	qSim         []float64
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
		verts:       map[VertexID]*Vertex{},
		byMach:      make([][]*Vertex, c.NumMachines()),
		stages:      make([]stage, c.NumMachines()),
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
// Each id may be added once.
func (g *Graph) AddVertex(id VertexID, data any, bytes int64, scaled bool, machine int) *Vertex {
	if g.loaded {
		panic("bsp: AddVertex after Load")
	}
	if _, dup := g.verts[id]; dup {
		panic(fmt.Sprintf("bsp: AddVertex of existing vertex %d", id))
	}
	if machine < 0 {
		machine = int(uint64(id*2654435761) % uint64(len(g.byMach)))
	}
	v := &Vertex{ID: id, Data: data, Bytes: bytes, Scaled: scaled, machine: machine, slot: int32(len(g.verts))}
	g.verts[id] = v
	g.byMach[machine] = append(g.byMach[machine], v)
	return v
}

// Vertex returns the vertex with the given id, or nil.
func (g *Graph) Vertex(id VertexID) *Vertex { return g.verts[id] }

// Load finalizes the graph, charging vertex state (with the JVM heap
// factor) against machine memory.
func (g *Graph) Load() error {
	if g.loaded {
		return nil
	}
	g.qStart = make([]int32, len(g.verts))
	g.qLen = make([]int32, len(g.verts))
	t0, rec0 := g.c.Now(), g.c.RecoveredSec()
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
	g.loadSec = (g.c.Now() - t0) - (g.c.RecoveredSec() - rec0)
	return nil
}

// Context is the compute environment of one machine's superstep task,
// handed to each of its vertices in turn.
type Context struct {
	g     *Graph
	meter *sim.Meter
	v     *Vertex // the vertex computing
	// staged sends from this machine, combined per destination.
	stage *stage
	// agg buffers this machine's aggregator contributions; machines may
	// compute concurrently, so the global sums are merged at the barrier
	// in machine order. Made on first use, like shared.
	agg *ordmap.Map[string, float64]
	// shared buffers this machine's SetShared publications, applied at the
	// barrier in machine order (last machine wins, as under sequential
	// execution).
	shared *ordmap.Map[string, sharedVal]
}

// staged is one destination's traffic from one machine: the first
// message, the combined message, or (without a combiner) a []Msg chain,
// with its simulated size.
type staged struct {
	msg      Msg
	simBytes float64
}

// stage is one machine's sends of a superstep, one entry per destination
// in first-send order, hashed by the destination's slot.
type stage = ordmap.Map[*Vertex, staged]

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
	dstV := ctx.g.verts[dst]
	if dstV == nil {
		panic(fmt.Sprintf("bsp: send to unknown vertex %d", dst))
	}
	mult := 1.0
	if ctx.v.Scaled || dstV.Scaled {
		mult = ctx.g.c.Scale()
	}
	msg := Msg{Data: data, Bytes: bytes}
	i, queued := ctx.stage.Put(dstV, uint64(dstV.slot))
	e := &ctx.stage.Entries()[i].Val
	switch {
	case !queued:
		// The first message to a destination seeds its entry.
		e.msg, e.simBytes = msg, float64(bytes)*mult
	case ctx.g.combiner != nil:
		// Combining collapses the sender-side multiplicity (all of a
		// machine's paper-scale messages to this destination become
		// one), but a scaled destination still stands for Scale paper
		// vertices that each receive their own copy. The charge below is
		// the combining work per original message.
		combined := ctx.g.combiner(e.msg, msg)
		dstMult := 1.0
		if dstV.Scaled {
			dstMult = ctx.g.c.Scale()
		}
		e.msg, e.simBytes = combined, float64(combined.Bytes)*dstMult
	default:
		// Without a combiner every message is delivered: chain them via
		// a list in Data.
		list, _ := e.msg.Data.([]Msg)
		if list == nil {
			list = []Msg{e.msg}
		}
		e.msg = Msg{Data: append(list, msg), Bytes: e.msg.Bytes + bytes}
		e.simBytes += float64(bytes) * mult
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
	if ctx.agg == nil {
		ctx.agg = ordmap.New[string, float64]()
	}
	sum, _ := ctx.agg.Ref(name)
	*sum += v * mult
	ctx.meter.ChargeTuplesAbs(mult)
}

// Agg returns the previous superstep's merged value of the named
// aggregator (0 if never set).
func (ctx *Context) Agg(name string) float64 { return ctx.g.aggPrev[name] }

// SetShared publishes a worker-shared value (the aggregator-based model
// "broadcast" of the paper's Giraph codes): after this superstep every
// machine holds one copy, charged against its memory.
func (ctx *Context) SetShared(name string, value any, bytes int64) {
	if ctx.shared == nil {
		ctx.shared = ordmap.New[string, sharedVal]()
	}
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
	t0, rec0 := g.c.Now(), g.c.RecoveredSec()
	g.c.AdvanceNamed("bsp-superstep-launch", cost.BSPSuperstep)
	machines := g.c.NumMachines()
	inflight := float64(machines) / (float64(machines) + cost.BSPInflightHalfM)

	// Resident buffer sizes of the queued messages, per destination
	// machine, summed in first-queued order.
	resident := make([]float64, machines)
	for _, v := range g.qOrder {
		lo := g.qStart[v.slot]
		for _, b := range g.qSim[lo : lo+g.qLen[v.slot]] {
			resident[v.machine] += b
		}
	}

	// Rotate aggregators.
	g.aggPrev = g.aggCur
	g.aggCur = map[string]float64{}

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
		ctx := &Context{g: g, meter: m, stage: &g.stages[machine]}
		for _, v := range g.byMach[machine] {
			msgs := g.inbox(v)
			if v.Scaled {
				m.ChargeTuples(1 + len(msgs))
			} else {
				m.ChargeTuplesAbs(float64(1 + len(msgs)))
			}
			ctx.v = v
			if err := compute(ctx, v, msgs); err != nil {
				return err
			}
		}
		aggStages[machine], sharedStages[machine] = ctx.agg, ctx.shared
		// Network for staged sends (combined volume).
		var msgCount, msgBytes float64
		for _, e := range ctx.stage.Entries() {
			if dm := e.Key.machine; dm != machine {
				m.SendModel(dm, e.Val.simBytes)
				msgCount++
				msgBytes += e.Val.simBytes
			}
		}
		if msgCount > 0 {
			m.Count("messages", msgCount)
			m.Count("message_bytes", msgBytes)
		}
		return nil
	})
	// This superstep's queue is delivered; the stages become the next.
	for _, v := range g.qOrder {
		g.qLen[v.slot] = 0
	}
	g.qOrder, g.qMsg, g.qSim = g.qOrder[:0], nil, nil
	if err == nil {
		g.enqueueStages()
	}
	for i := range g.stages {
		g.stages[i].Reset()
	}
	if err != nil {
		return err
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
	g.stepSecs = append(g.stepSecs, (g.c.Now()-t0)-(g.c.RecoveredSec()-rec0))
	g.step++
	return nil
}

// inbox returns v's messages for this superstep: its queue range, with
// each []Msg chain flattened into its messages. Without chains the range
// is handed out as is.
func (g *Graph) inbox(v *Vertex) []Msg {
	n := g.qLen[v.slot]
	if n == 0 {
		return nil
	}
	lo := g.qStart[v.slot]
	queued := g.qMsg[lo : lo+n : lo+n]
	for i, m := range queued {
		if _, ok := m.Data.([]Msg); ok {
			msgs := append(make([]Msg, 0, len(queued)), queued[:i]...)
			for _, m := range queued[i:] {
				if list, ok := m.Data.([]Msg); ok {
					msgs = append(msgs, list...)
				} else {
					msgs = append(msgs, m)
				}
			}
			return msgs
		}
	}
	return queued
}

// enqueueStages moves the machines' stages into the queue. Destinations
// are queued in the order the stages first name them, walking machines
// in order, and each destination's messages follow machine order.
func (g *Graph) enqueueStages() {
	n := 0
	for i := range g.stages {
		for _, e := range g.stages[i].Entries() {
			if g.qLen[e.Key.slot] == 0 {
				g.qOrder = append(g.qOrder, e.Key)
			}
			g.qLen[e.Key.slot]++
			n++
		}
	}
	var lo int32
	for _, v := range g.qOrder {
		g.qStart[v.slot] = lo
		lo += g.qLen[v.slot]
		g.qLen[v.slot] = 0 // refilled below
	}
	g.qMsg, g.qSim = make([]Msg, n), make([]float64, n)
	for i := range g.stages {
		for _, e := range g.stages[i].Entries() {
			j := g.qStart[e.Key.slot] + g.qLen[e.Key.slot]
			g.qMsg[j], g.qSim[j] = e.Val.msg, e.Val.simBytes
			g.qLen[e.Key.slot]++
		}
	}
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

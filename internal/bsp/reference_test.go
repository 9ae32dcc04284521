package bsp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mlbench/internal/ordmap"
	"mlbench/internal/sim"
	"mlbench/internal/trace"
)

// refCompute is Compute against the reference engine.
type refCompute func(ctx *refContext, v *Vertex, msgs []Msg) error

// refPending is a queued message with its simulated multiplicity applied.
type refPending struct {
	msg      Msg
	simBytes float64
	src      int // source machine
}

// refGraph is the engine as it was before the flat message path: per
// machine ordmap stages, an ordmap queue and per-superstep inboxes. It
// drops fault recovery, which the battery does not inject.
type refGraph struct {
	c        *sim.Cluster
	verts    *ordmap.Map[VertexID, *Vertex]
	byMach   [][]*Vertex
	combiner Combiner
	loaded   bool
	step     int

	// queue[dst vertex] = messages to deliver next superstep.
	queue *ordmap.Map[VertexID, []refPending]
	// aggregates from the previous superstep (master-merged sums).
	aggPrev map[string]float64
	aggCur  map[string]float64
	// shared values (aggregator-broadcast model state).
	shared      map[string]any
	sharedBytes map[string]int64
	sharedAlloc int64 // per-machine resident bytes for shared values
}

func newRefGraph(c *sim.Cluster) *refGraph {
	g := &refGraph{
		c:           c,
		verts:       ordmap.New[VertexID, *Vertex](),
		byMach:      make([][]*Vertex, c.NumMachines()),
		queue:       ordmap.New[VertexID, []refPending](),
		aggPrev:     map[string]float64{},
		aggCur:      map[string]float64{},
		shared:      map[string]any{},
		sharedBytes: map[string]int64{},
	}
	c.SetEngineLabel("giraph")
	return g
}

// SetCombiner installs a sender-side message combiner.
func (g *refGraph) SetCombiner(c Combiner) { g.combiner = c }

// AddVertex inserts a vertex, placed by id hash unless machine >= 0.
func (g *refGraph) AddVertex(id VertexID, data any, bytes int64, scaled bool, machine int) *Vertex {
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
func (g *refGraph) Vertex(id VertexID) *Vertex {
	v, _ := g.verts.Get(id)
	return v
}

// Load finalizes the graph, charging vertex state (with the JVM heap
// factor) against machine memory.
func (g *refGraph) Load() error {
	if g.loaded {
		return nil
	}
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
	return nil
}

// refContext is the reference's per-vertex compute environment.
type refContext struct {
	g     *refGraph
	meter *sim.Meter
	v     *Vertex
	// staged sends from this machine, combined per destination.
	stage *ordmap.Map[VertexID, refPending]
	// agg buffers this machine's aggregator contributions; machines may
	// compute concurrently, so the global sums are merged at the barrier
	// in machine order.
	agg *ordmap.Map[string, float64]
	// shared buffers this machine's SetShared publications, applied at the
	// barrier in machine order (last machine wins, as under sequential
	// execution).
	shared *ordmap.Map[string, refSharedVal]
}

// refSharedVal is one staged worker-shared publication.
type refSharedVal struct {
	value any
	bytes int64
}

// Meter exposes the task meter for user-code cost charging.
func (ctx *refContext) Meter() *sim.Meter { return ctx.meter }

// Send enqueues a message for delivery to dst in the next superstep.
// bytes is the wire size of the payload. The simulated multiplicity is
// the cluster scale factor when either endpoint is data-proportional.
func (ctx *refContext) Send(dst VertexID, data any, bytes int64) {
	dstV := ctx.g.Vertex(dst)
	if dstV == nil {
		panic(fmt.Sprintf("bsp: send to unknown vertex %d", dst))
	}
	mult := 1.0
	if ctx.v.Scaled || dstV.Scaled {
		mult = ctx.g.c.Scale()
	}
	msg := Msg{Data: data, Bytes: bytes}
	p := refPending{msg: msg, simBytes: float64(bytes) * mult, src: ctx.v.machine}
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
			ctx.stage.Set(dst, refPending{msg: combined, simBytes: float64(combined.Bytes) * dstMult, src: p.src})
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
			ctx.stage.Set(key, refPending{
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
func (ctx *refContext) Aggregate(name string, v float64) {
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
func (ctx *refContext) Agg(name string) float64 { return ctx.g.aggPrev[name] }

// SetShared publishes a worker-shared value (the aggregator-based model
// "broadcast" of the paper's Giraph codes): after this superstep every
// machine holds one copy, charged against its memory.
func (ctx *refContext) SetShared(name string, value any, bytes int64) {
	ctx.shared.Set(name, refSharedVal{value: value, bytes: bytes})
}

// Shared returns a worker-shared value published in an earlier superstep.
func (ctx *refContext) Shared(name string) any { return ctx.g.shared[name] }

// RunSuperstep delivers queued messages, runs compute on every active
// vertex, and stages the next round of messages. It returns the first
// error, typically a simulated OOM from message buffering.
func (g *refGraph) RunSuperstep(compute refCompute) error {
	if !g.loaded {
		return fmt.Errorf("bsp: RunSuperstep before Load")
	}
	cost := g.c.Config().Cost
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
	g.queue.Each(func(dst VertexID, ps []refPending) {
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
	g.queue = ordmap.New[VertexID, []refPending]()

	// Rotate aggregators.
	g.aggPrev = g.aggCur
	g.aggCur = map[string]float64{}

	stages := make([]*ordmap.Map[VertexID, refPending], machines)
	aggStages := make([]*ordmap.Map[string, float64], machines)
	sharedStages := make([]*ordmap.Map[string, refSharedVal], machines)
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
		stage := ordmap.New[VertexID, refPending]()
		stages[machine] = stage
		agg := ordmap.New[string, float64]()
		aggStages[machine] = agg
		shared := ordmap.New[string, refSharedVal]()
		sharedStages[machine] = shared
		for _, v := range g.byMach[machine] {
			msgs, _ := inbox[machine].Get(v.ID)
			if v.Scaled {
				m.ChargeTuples(1 + len(msgs))
			} else {
				m.ChargeTuplesAbs(float64(1 + len(msgs)))
			}
			ctx := &refContext{g: g, meter: m, v: v, stage: stage, agg: agg, shared: shared}
			if err := compute(ctx, v, msgs); err != nil {
				return err
			}
		}
		// Network for staged sends (combined volume).
		var msgCount, msgBytes float64
		stage.Each(func(dst VertexID, p refPending) {
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
		stage.Each(func(dst VertexID, p refPending) {
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
		s.Each(func(name string, sv refSharedVal) {
			g.shared[name] = sv.value
			g.sharedBytes[name] = sv.bytes
		})
	}
	// Distribute shared values: one copy per machine.
	if err := g.settleShared(); err != nil {
		return err
	}
	g.step++
	return nil
}

// settleShared charges the per-machine residence and distribution of
// worker-shared values.
func (g *refGraph) settleShared() error {
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

// The flat message path must deliver exactly what the ordmap engine did:
// the same messages in the same order, the same aggregates, virtual
// clock, trace (network charges and message counters) and error text.
func TestMessagePathMatchesReference(t *testing.T) {
	cases := []refCase{
		{name: "uncombined", machines: 3, verts: 24, steps: 4, sends: 6},
		{name: "combined", machines: 3, verts: 24, steps: 4, sends: 6, combine: true},
		{name: "few-destinations", machines: 4, verts: 6, steps: 3, sends: 12},
		{name: "few-destinations-combined", machines: 4, verts: 6, steps: 3, sends: 12, combine: true},
		{name: "one-machine", machines: 1, verts: 10, steps: 3, sends: 5, combine: true},
		{name: "wide", machines: 7, verts: 200, steps: 3, sends: 4},
		// 4 MB machines at scale 10^4: a superstep's message buffers
		// overflow and the engines must fail alike.
		{name: "oom", machines: 3, verts: 30, steps: 4, sends: 8, mem: 4 << 20, scale: 1e4},
		{name: "oom-combined", machines: 3, verts: 30, steps: 4, sends: 8, mem: 4 << 20, scale: 1e4, combine: true},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/seed%d/workers%d", c.name, seed, workers)
				t.Run(name, func(t *testing.T) {
					want := c.run(seed, workers, true)
					got := c.run(seed, workers, false)
					if got.text != want.text {
						t.Errorf("run differs from the reference.\ngot:\n%s\nwant:\n%s", got.text, want.text)
					}
					if got.trace != want.trace {
						t.Errorf("trace differs from the reference.\ngot:\n%s\nwant:\n%s", got.trace, want.trace)
					}
					if testing.Verbose() && seed == 1 && workers == 1 {
						t.Log(want.text)
					}
					if c.mem > 0 && !strings.Contains(want.text, "out of memory") {
						t.Errorf("case never ran out of memory:\n%s", want.text)
					}
				})
			}
		}
	}
}

// refCase is one randomized BSP run: verts vertices, some scaled, placed
// at random or by hash, each sending up to sends messages per superstep
// to random destinations (so one machine often sends a destination
// several), some payloads combinable (float64) and some not (string).
type refCase struct {
	name     string
	machines int
	verts    int
	steps    int
	sends    int
	combine  bool
	mem      int64
	scale    float64
}

type refResult struct{ text, trace string }

// sender is what the scenario's compute needs of either engine's context.
type sender interface {
	Send(dst VertexID, data any, bytes int64)
	Aggregate(name string, v float64)
	Agg(name string) float64
	SetShared(name string, value any, bytes int64)
}

// run drives the case on the reference engine (ref) or the package's.
func (c refCase) run(seed int64, workers int, ref bool) refResult {
	cfg := sim.DefaultConfig(c.machines)
	cfg.Scale = 10
	if c.scale > 0 {
		cfg.Scale = c.scale
	}
	if c.mem > 0 {
		cfg.MemBytes = c.mem
	}
	cfg.HostWorkers = workers
	cfg.Tracer = trace.NewRecorder()
	cl := sim.New(cfg)

	type engine struct {
		add  func(id VertexID, bytes int64, scaled bool, machine int)
		load func() error
		step func(func(ctx sender, v *Vertex, msgs []Msg) error) error
	}
	var e engine
	if ref {
		g := newRefGraph(cl)
		if c.combine {
			g.SetCombiner(testCombiner)
		}
		e = engine{
			add:  func(id VertexID, b int64, s bool, m int) { g.AddVertex(id, nil, b, s, m) },
			load: g.Load,
			step: func(f func(sender, *Vertex, []Msg) error) error {
				return g.RunSuperstep(func(ctx *refContext, v *Vertex, msgs []Msg) error { return f(ctx, v, msgs) })
			},
		}
	} else {
		g := NewGraph(cl)
		if c.combine {
			g.SetCombiner(testCombiner)
		}
		e = engine{
			add:  func(id VertexID, b int64, s bool, m int) { g.AddVertex(id, nil, b, s, m) },
			load: g.Load,
			step: func(f func(sender, *Vertex, []Msg) error) error {
				return g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error { return f(ctx, v, msgs) })
			},
		}
	}

	rng := rand.New(rand.NewSource(seed))
	ids := make([]VertexID, c.verts)
	for i := range ids {
		ids[i] = VertexID(rng.Int63n(1 << 40))
		machine := -1
		if rng.Intn(2) == 0 {
			machine = rng.Intn(c.machines)
		}
		e.add(ids[i], int64(8+rng.Intn(64)), rng.Intn(3) == 0, machine)
	}

	var out strings.Builder
	if err := e.load(); err != nil {
		fmt.Fprintf(&out, "load: %v\n", err)
	}
	var mu sync.Mutex
	logs := map[VertexID]string{}
	for step := 0; step < c.steps; step++ {
		clear(logs)
		err := e.step(func(ctx sender, v *Vertex, msgs []Msg) error {
			r := rand.New(rand.NewSource(seed*7919 + int64(step)*104729 + int64(v.ID)))
			line := fmt.Sprintf("agg=%x msgs=%s", math.Float64bits(ctx.Agg("a")), formatMsgs(msgs))
			for n := r.Intn(c.sends + 1); n > 0; n-- {
				dst := ids[r.Intn(len(ids))]
				size := int64(1 + r.Intn(1<<12))
				if r.Intn(4) == 0 {
					ctx.Send(dst, fmt.Sprintf("s%d.%d", v.ID, n), size)
				} else {
					ctx.Send(dst, r.NormFloat64(), size)
				}
			}
			if r.Intn(3) == 0 {
				ctx.Aggregate("a", r.Float64())
			}
			if r.Intn(8) == 0 {
				ctx.SetShared(fmt.Sprint("s", r.Intn(3)), v.ID, int64(r.Intn(1<<10)))
			}
			mu.Lock()
			logs[v.ID] = line
			mu.Unlock()
			return nil
		})
		fmt.Fprintf(&out, "step %d clock %x err %v\n", step, math.Float64bits(cl.Now()), err)
		for _, id := range ids {
			if l, ok := logs[id]; ok {
				fmt.Fprintf(&out, "  %d %s\n", id, l)
			}
		}
		if err != nil {
			break
		}
	}
	var tr bytes.Buffer
	if err := trace.WriteCSV(&tr, cfg.Tracer); err != nil {
		panic(err)
	}
	return refResult{text: out.String(), trace: tr.String() + cfg.Tracer.Metrics().Render()}
}

// testCombiner sums float64 payloads and chains anything else into a
// []Msg list, as the GMM Giraph combiner does for model messages.
func testCombiner(a, b Msg) Msg {
	x, aok := a.Data.(float64)
	y, bok := b.Data.(float64)
	if !aok || !bok {
		return Msg{Data: []Msg{a, b}, Bytes: a.Bytes + b.Bytes}
	}
	return Msg{Data: x + y, Bytes: max(a.Bytes, b.Bytes)}
}

// formatMsgs renders messages bit-exactly, nested lists included.
func formatMsgs(msgs []Msg) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, m := range msgs {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch d := m.Data.(type) {
		case float64:
			fmt.Fprintf(&b, "%x", math.Float64bits(d))
		case []Msg:
			b.WriteString(formatMsgs(d))
		default:
			fmt.Fprint(&b, d)
		}
		fmt.Fprintf(&b, "/%d", m.Bytes)
	}
	b.WriteByte(']')
	return b.String()
}

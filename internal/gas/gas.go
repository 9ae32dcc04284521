// Package gas implements a GraphLab-like gather-apply-scatter engine on
// the simulated cluster.
//
// The engine is pull-based, like GraphLab 2.2: in the gather phase every
// active vertex materializes a copy of each neighbor's exported view,
// combines them with a user Sum, and in the apply phase updates its own
// state. The per-vertex view materialization is charged against simulated
// machine memory — this is precisely the behaviour the paper blames for
// GraphLab's failures ("GraphLab seems to simultaneously materialize one
// 50KB copy of the model for each data point, which quickly exhausts the
// available memory"), and why every working GraphLab code in the paper is
// a super-vertex code. Network traffic, by contrast, is charged once per
// (machine, remote neighbor) pair, modelling GraphLab's ghost-vertex
// replication.
//
// The engine also reproduces GraphLab's boot problem: the paper could not
// start GraphLab on more than 96 machines, so a Graph created on a larger
// cluster only spreads vertices over the first 96 and reports the clamp.
package gas

import (
	"fmt"

	"mlbench/internal/ordmap"
	"mlbench/internal/sim"
)

// VertexID identifies a vertex.
type VertexID int64

// Vertex is one graph vertex: user data plus placement and accounting
// metadata.
type Vertex struct {
	ID   VertexID
	Data any
	// Bytes is the simulated size of the vertex state.
	Bytes int64
	// Scaled marks data-proportional vertices (each in-memory vertex
	// stands for Scale vertices at paper scale).
	Scaled  bool
	machine int
}

// Machine returns the machine hosting the vertex.
func (v *Vertex) Machine() int { return v.machine }

// EdgeSet enumerates neighborhoods. The tasks implement it implicitly
// (a super vertex sees its model vertices by rule) to avoid storing
// enormous edge lists, exactly as the paper's Giraph code avoided
// recording edges explicitly.
type EdgeSet interface {
	// Neighbors returns the neighbor ids of v in deterministic order.
	Neighbors(v VertexID) []VertexID
}

// Program is a gather-apply-scatter vertex program. All hooks receive the
// task meter so implementations charge their own numeric work (GraphLab
// user code is C++; use sim.ProfileCPP costs via the meter helpers).
type Program interface {
	// ViewBytes is the simulated size of the view vertex v exports to its
	// gathering neighbors.
	ViewBytes(v *Vertex) int64
	// Gather produces v's accumulator contribution from one neighbor.
	Gather(m *sim.Meter, v, nbr *Vertex) any
	// Sum combines two accumulator values.
	Sum(m *sim.Meter, a, b any) any
	// Apply updates v's state from the combined accumulator (nil if v has
	// no neighbors).
	Apply(m *sim.Meter, v *Vertex, acc any)
}

// Graph is a distributed graph bound to a cluster.
type Graph struct {
	c        *sim.Cluster
	verts    *ordmap.Map[VertexID, *Vertex]
	byMach   [][]*Vertex
	edges    EdgeSet
	machines int // effective machines after the boot clamp
	clamped  bool
	loaded   bool

	// Fault-recovery state (see recover.go): asynchronous snapshots every
	// snapEvery rounds; a crash restores only the victim's subgraph.
	snapEvery int
	rounds    int
	loadSec   float64   // measured graph-load time (restart basis)
	roundSecs []float64 // round durations since the last snapshot
	haveSnap  bool
}

// NewGraph creates a graph. If the cluster exceeds the cost model's
// GASBootMaxMachines, vertices are spread over only that many machines
// and Clamped reports true (the paper's footnote: GraphLab would not boot
// past 96 machines).
func NewGraph(c *sim.Cluster, edges EdgeSet) *Graph {
	machines := c.NumMachines()
	clamped := false
	if max := c.Config().Cost.GASBootMaxMachines; max > 0 && machines > max {
		machines = max
		clamped = true
	}
	g := &Graph{
		c:         c,
		verts:     ordmap.New[VertexID, *Vertex](),
		byMach:    make([][]*Vertex, machines),
		edges:     edges,
		machines:  machines,
		clamped:   clamped,
		snapEvery: c.Config().Recovery.GASSnapshotEvery,
	}
	c.SetFaultHandler(g.handleFault)
	c.SetEngineLabel("graphlab")
	return g
}

// Clamped reports whether the boot clamp reduced the effective machine
// count.
func (g *Graph) Clamped() bool { return g.clamped }

// SetEdges installs the edge set. It must run before Load; graphs whose
// vertex sets are built incrementally construct their implicit edge sets
// afterwards.
func (g *Graph) SetEdges(e EdgeSet) {
	if g.loaded {
		panic("gas: SetEdges after Load")
	}
	g.edges = e
}

// EffectiveMachines returns the number of machines actually hosting
// vertices.
func (g *Graph) EffectiveMachines() int { return g.machines }

// AddVertex inserts a vertex, placed by id hash unless machine >= 0.
func (g *Graph) AddVertex(id VertexID, data any, bytes int64, scaled bool, machine int) *Vertex {
	if g.loaded {
		panic("gas: AddVertex after Load")
	}
	if machine < 0 {
		machine = int(uint64(id*2654435761) % uint64(g.machines))
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

// Load finalizes the graph: vertex state is charged against machine
// memory, and loading time is charged per vertex.
func (g *Graph) Load() error {
	if g.loaded {
		return nil
	}
	t0, rec0 := g.c.Now(), recoveredSec(g.c)
	err := g.c.RunPhaseF("gas-load", func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		m.SetProfile(sim.ProfileCPP)
		for _, v := range g.byMach[machine] {
			if v.Scaled {
				m.ChargeTuples(1)
				if err := m.AllocData(v.Bytes, "gas vertex"); err != nil {
					return err
				}
			} else {
				m.ChargeTuplesAbs(1)
				if err := m.AllocModel(v.Bytes, "gas vertex"); err != nil {
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

// RunRound executes one synchronous gather-apply round over the given
// active vertices (all vertices if active is nil). It returns the first
// error, typically a simulated OOM from gather materialization.
func (g *Graph) RunRound(prog Program, active []VertexID) error {
	if !g.loaded {
		return fmt.Errorf("gas: RunRound before Load")
	}
	if g.snapEvery > 0 && g.rounds > 0 && g.rounds%g.snapEvery == 0 {
		if err := g.snapshot(); err != nil {
			return err
		}
	}
	t0, rec0 := g.c.Now(), recoveredSec(g.c)
	g.c.AdvanceNamed("gas-round-launch", g.c.Config().Cost.GASRound)

	actByMach := make([][]*Vertex, g.machines)
	if active == nil {
		for mi := range g.byMach {
			actByMach[mi] = g.byMach[mi]
		}
	} else {
		for _, id := range active {
			v := g.Vertex(id)
			if v == nil {
				return fmt.Errorf("gas: unknown active vertex %d", id)
			}
			actByMach[v.machine] = append(actByMach[v.machine], v)
		}
	}

	// Gather phase: per active vertex, materialize neighbor views, charge
	// memory and network, compute accumulators. Accumulators live in
	// per-machine maps: each task only writes its own machine's map, so
	// machines can gather on concurrent host goroutines.
	accsBy := make([]map[*Vertex]any, g.machines)
	gatherAlloc := make([]int64, g.machines)
	err := g.c.RunPhaseF("gas-gather", func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		accs := make(map[*Vertex]any, len(actByMach[machine]))
		accsBy[machine] = accs
		m.SetProfile(sim.ProfileCPP)
		for _, v := range actByMach[machine] {
			var acc any
			first := true
			var viewBytes int64
			for _, nid := range g.edges.Neighbors(v.ID) {
				nbr := g.Vertex(nid)
				if nbr == nil {
					return fmt.Errorf("gas: vertex %d has unknown neighbor %d", v.ID, nid)
				}
				viewBytes += prog.ViewBytes(nbr)
				// Per-edge gather dispatch, at the gatherer's cardinality.
				if v.Scaled {
					m.ChargeTuples(1)
				} else {
					m.ChargeTuplesAbs(1)
				}
				contrib := prog.Gather(m, v, nbr)
				if first {
					acc, first = contrib, false
				} else {
					acc = prog.Sum(m, acc, contrib)
				}
			}
			// The engine materializes all gathered views for this vertex
			// simultaneously — and keeps them until the apply phase
			// completes, across all active vertices. The asynchronous
			// scheduler additionally holds ~(1 + M/GASAsyncDepthDiv)
			// rounds of gathers in flight.
			if v.Scaled {
				viewBytes = int64(float64(viewBytes) * g.c.Scale())
			}
			rawViewBytes := float64(viewBytes)
			if div := g.c.Config().Cost.GASAsyncDepthDiv; div > 0 {
				viewBytes = int64(float64(viewBytes) * (1 + float64(g.machines)/div))
			}
			if err := m.Machine().Alloc(viewBytes, "gas gather views"); err != nil {
				return err
			}
			gatherAlloc[machine] += viewBytes
			// Deserializing and materializing the gathered views is
			// single-threaded engine work.
			if rate := g.c.Config().Cost.GASGatherBytesPerSec; rate > 0 {
				m.ChargeSerialSec(rawViewBytes / rate)
			}
			accs[v] = acc
		}
		return nil
	})
	if err != nil {
		g.freeGather(gatherAlloc)
		return err
	}

	// Ghost traffic: charged in a dedicated phase from source machines.
	err = g.chargeGhostTraffic(prog, actByMach)
	if err != nil {
		g.freeGather(gatherAlloc)
		return err
	}

	// Apply phase.
	err = g.c.RunPhaseF("gas-apply", func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		m.SetProfile(sim.ProfileCPP)
		for _, v := range actByMach[machine] {
			if v.Scaled {
				m.ChargeTuples(1)
			} else {
				m.ChargeTuplesAbs(1)
			}
			prog.Apply(m, v, accsBy[machine][v])
		}
		return nil
	})
	g.freeGather(gatherAlloc)
	if err == nil {
		// Record the round's duration (minus any recovery settled within
		// it) as replay basis for snapshot restore.
		g.roundSecs = append(g.roundSecs, (g.c.Now()-t0)-(recoveredSec(g.c)-rec0))
		g.rounds++
	}
	return err
}

func (g *Graph) freeGather(alloc []int64) {
	for mi, b := range alloc {
		if b > 0 {
			g.c.Machine(mi).Free(b)
		}
	}
}

// chargeGhostTraffic ships each (destination machine, remote neighbor)
// view once, from the neighbor's host machine.
func (g *Graph) chargeGhostTraffic(prog Program, actByMach [][]*Vertex) error {
	// For each destination machine, the set of remote sources it needs.
	type flow struct {
		src, dst int
		bytes    float64
	}
	var flows []flow
	for dst := 0; dst < g.machines; dst++ {
		needed := ordmap.New[VertexID, bool]()
		for _, v := range actByMach[dst] {
			for _, nid := range g.edges.Neighbors(v.ID) {
				nbr := g.Vertex(nid)
				if nbr != nil && nbr.machine != dst {
					if _, seen := needed.Get(nid); !seen {
						needed.Set(nid, true)
						flows = append(flows, flow{src: nbr.machine, dst: dst, bytes: float64(prog.ViewBytes(nbr))})
					}
				}
			}
		}
	}
	if len(flows) == 0 {
		return nil
	}
	bySrc := make([][]flow, g.machines)
	for _, f := range flows {
		bySrc[f.src] = append(bySrc[f.src], f)
	}
	return g.c.RunPhaseF("gas-ghosts", func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		var ghostBytes float64
		for _, f := range bySrc[machine] {
			m.SendModel(f.dst, f.bytes)
			ghostBytes += f.bytes
		}
		if ghostBytes > 0 {
			m.Count("ghost_bytes", ghostBytes)
		}
		return nil
	})
}

// TransformVertices runs fn over every vertex in one phase (GraphLab's
// transform_vertices).
func (g *Graph) TransformVertices(fn func(m *sim.Meter, v *Vertex)) error {
	if !g.loaded {
		return fmt.Errorf("gas: TransformVertices before Load")
	}
	return g.c.RunPhaseF("gas-transform", func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		m.SetProfile(sim.ProfileCPP)
		for _, v := range g.byMach[machine] {
			if v.Scaled {
				m.ChargeTuples(1)
			} else {
				m.ChargeTuplesAbs(1)
			}
			fn(m, v)
		}
		return nil
	})
}

// MapReduceVertices maps every vertex and reduces the results to one value
// (GraphLab's map_reduce_vertices), with tree-style aggregation to machine
// 0. resultBytes sizes the partial results for network charging.
func (g *Graph) MapReduceVertices(resultBytes int64, mapFn func(m *sim.Meter, v *Vertex) any, reduceFn func(m *sim.Meter, a, b any) any) (any, error) {
	if !g.loaded {
		return nil, fmt.Errorf("gas: MapReduceVertices before Load")
	}
	partials := make([]any, g.machines)
	has := make([]bool, g.machines)
	err := g.c.RunPhaseF("gas-mapreduce", func(machine int, m *sim.Meter) error {
		if machine >= g.machines {
			return nil
		}
		m.SetProfile(sim.ProfileCPP)
		for _, v := range g.byMach[machine] {
			if v.Scaled {
				m.ChargeTuples(1)
			} else {
				m.ChargeTuplesAbs(1)
			}
			r := mapFn(m, v)
			if !has[machine] {
				partials[machine], has[machine] = r, true
			} else {
				partials[machine] = reduceFn(m, partials[machine], r)
			}
		}
		if machine != 0 && has[machine] {
			m.SendModel(0, float64(resultBytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out any
	first := true
	err = g.c.RunDriver("gas-mapreduce-merge", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		for mi := 0; mi < g.machines; mi++ {
			if !has[mi] {
				continue
			}
			if first {
				out, first = partials[mi], false
			} else {
				out = reduceFn(m, out, partials[mi])
			}
		}
		return nil
	})
	return out, err
}

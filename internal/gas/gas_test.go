package gas

import (
	"testing"

	"mlbench/internal/sim"
)

func testCluster(machines int) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	return sim.New(cfg)
}

// sumProg: every vertex holds a float64; gather sums neighbor values and
// apply stores the sum back.
type sumProg struct{ viewBytes int64 }

func (p sumProg) ViewBytes(v *Vertex) int64 { return p.viewBytes }
func (p sumProg) Gather(m *sim.Meter, v, nbr *Vertex) any {
	return nbr.Data.(float64)
}
func (p sumProg) Sum(m *sim.Meter, a, b any) any { return a.(float64) + b.(float64) }
func (p sumProg) Apply(m *sim.Meter, v *Vertex, acc any) {
	if acc != nil {
		v.Data = acc.(float64)
	}
}

// Star connects Center to every Leaf: the edge set of these tests.
type Star struct {
	Center VertexID
	Leaves []VertexID
}

func (s *Star) Neighbors(v VertexID) []VertexID {
	if v == s.Center {
		return s.Leaves
	}
	for _, l := range s.Leaves {
		if l == v {
			return []VertexID{s.Center}
		}
	}
	return nil
}

func buildStarGraph(c *sim.Cluster, leaves int) *Graph {
	star := &Star{Center: 0}
	for i := 1; i <= leaves; i++ {
		star.Leaves = append(star.Leaves, VertexID(i))
	}
	g := NewGraph(c, star)
	g.AddVertex(0, 0.0, 64, false, -1)
	for i := 1; i <= leaves; i++ {
		g.AddVertex(VertexID(i), float64(i), 64, true, -1)
	}
	return g
}

func TestGatherApplyStar(t *testing.T) {
	c := testCluster(3)
	g := buildStarGraph(c, 5)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunRound(sumProg{viewBytes: 8}, nil); err != nil {
		t.Fatal(err)
	}
	// Center gathers 1+2+3+4+5 = 15; each leaf gathers the old center 0.
	if got := g.Vertex(0).Data.(float64); got != 15 {
		t.Errorf("center = %v, want 15", got)
	}
	for i := 1; i <= 5; i++ {
		if got := g.Vertex(VertexID(i)).Data.(float64); got != 0 {
			t.Errorf("leaf %d = %v, want 0 (old center value)", i, got)
		}
	}
}

func TestActiveSubsetOnly(t *testing.T) {
	c := testCluster(2)
	g := buildStarGraph(c, 4)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	// Only leaf 1 is active; the center must not update.
	if err := g.RunRound(sumProg{viewBytes: 8}, []VertexID{1}); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(0).Data.(float64); got != 0 {
		t.Errorf("inactive center changed to %v", got)
	}
	if got := g.Vertex(1).Data.(float64); got != 0 {
		t.Errorf("leaf 1 = %v, want center's 0", got)
	}
}

func TestGatherMaterializationOOM(t *testing.T) {
	// The paper's GMM failure mode: a big view gathered by many scaled
	// data vertices exhausts memory.
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1000
	cfg.MemBytes = 8 << 20 // 8 MB budget: vertex state fits, gathers do not
	c := sim.New(cfg)
	g := buildStarGraph(c, 100) // 100 data vertices x 50KB view x 1000 scale
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	loaded := c.TotalMemUsed()
	err := g.RunRound(sumProg{viewBytes: 50 << 10}, nil)
	if !sim.IsOOM(err) {
		t.Fatalf("expected gather OOM, got %v", err)
	}
	// All gather allocations must be released after the failed round.
	if used := c.TotalMemUsed(); used != loaded {
		t.Errorf("gather memory leaked: %d bytes vs %d after load", used, loaded)
	}
}

func TestSuperVertexAvoidsOOM(t *testing.T) {
	// Same budget as above, but 2 super vertices instead of 100 per-point
	// vertices: the gather fits.
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1000
	cfg.MemBytes = 1 << 20
	c := sim.New(cfg)
	star := &Star{Center: 0, Leaves: []VertexID{1, 2}}
	g := NewGraph(c, star)
	g.AddVertex(0, 0.0, 64, false, -1)
	g.AddVertex(1, 1.0, 64, false, -1) // super vertices are model-cardinality
	g.AddVertex(2, 2.0, 64, false, -1)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunRound(sumProg{viewBytes: 50 << 10}, nil); err != nil {
		t.Fatalf("super-vertex round failed: %v", err)
	}
	if got := g.Vertex(0).Data.(float64); got != 3 {
		t.Errorf("center = %v, want 3", got)
	}
}

func TestLoadChargesVertexMemory(t *testing.T) {
	c := testCluster(2)
	g := buildStarGraph(c, 4)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	// 4 scaled leaves x 64 bytes x scale 10 + 1 model center x 64.
	want := int64(4*64*10 + 64)
	if got := c.TotalMemUsed(); got != want {
		t.Errorf("loaded memory = %d, want %d", got, want)
	}
}

func TestLoadOOM(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1000
	cfg.MemBytes = 1000
	c := sim.New(cfg)
	g := buildStarGraph(c, 10)
	if err := g.Load(); !sim.IsOOM(err) {
		t.Fatalf("expected load OOM, got %v", err)
	}
}

func TestBootClamp(t *testing.T) {
	cfg := sim.DefaultConfig(100)
	cfg.Cost.GASBootMaxMachines = 96
	c := sim.New(cfg)
	g := NewGraph(c, &Star{})
	if !g.Clamped() || g.EffectiveMachines() != 96 {
		t.Errorf("clamp: clamped=%v effective=%d", g.Clamped(), g.EffectiveMachines())
	}
	small := NewGraph(testCluster(5), &Star{})
	if small.Clamped() {
		t.Error("5-machine graph should not clamp")
	}
}

func TestRunRoundBeforeLoadFails(t *testing.T) {
	g := NewGraph(testCluster(1), &Star{})
	if err := g.RunRound(sumProg{}, nil); err == nil {
		t.Fatal("expected error before Load")
	}
}

func TestTransformVertices(t *testing.T) {
	c := testCluster(2)
	g := buildStarGraph(c, 3)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.TransformVertices(func(m *sim.Meter, v *Vertex) {
		v.Data = v.Data.(float64) + 100
	}); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(2).Data.(float64); got != 102 {
		t.Errorf("vertex 2 = %v, want 102", got)
	}
}

func TestMapReduceVertices(t *testing.T) {
	c := testCluster(3)
	g := buildStarGraph(c, 10)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	out, err := g.MapReduceVertices(8,
		func(m *sim.Meter, v *Vertex) any { return v.Data.(float64) },
		func(m *sim.Meter, a, b any) any { return a.(float64) + b.(float64) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(float64); got != 55 {
		t.Errorf("MapReduceVertices = %v, want 55", got)
	}
}

func TestRoundAdvancesClock(t *testing.T) {
	c := testCluster(2)
	g := buildStarGraph(c, 3)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if err := g.RunRound(sumProg{viewBytes: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= before {
		t.Error("round did not advance the clock")
	}
}

func TestGhostTrafficOnlyForRemoteNeighbors(t *testing.T) {
	// All vertices on one machine: a round should move zero bytes.
	cfg := sim.DefaultConfig(2)
	cfg.Scale = 1
	cfg.Net = sim.Network{LatencySec: 100, BytesPerSec: 1} // make comm visible
	cfg.Cost.GASRound = 0
	cfg.Cost.PhaseBase = 0
	cfg.Cost.BarrierPerMachine = 0
	cfg.Cost.StragglerLogFactor = 0
	c := sim.New(cfg)
	star := &Star{Center: 0, Leaves: []VertexID{1, 2}}
	g := NewGraph(c, star)
	g.AddVertex(0, 0.0, 8, false, 0)
	g.AddVertex(1, 1.0, 8, false, 0)
	g.AddVertex(2, 2.0, 8, false, 0)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if err := g.RunRound(sumProg{viewBytes: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Now() - before; got >= 100 {
		t.Errorf("single-machine round paid network latency: %v", got)
	}
}

func TestVertexPlacementExplicit(t *testing.T) {
	c := testCluster(3)
	g := NewGraph(c, &Star{})
	v := g.AddVertex(7, nil, 8, false, 2)
	if v.Machine() != 2 {
		t.Errorf("explicit placement ignored: machine %d", v.Machine())
	}
}

func TestGatherSerializationCharged(t *testing.T) {
	// A big view must cost gather-deserialization time proportional to
	// its bytes at the configured rate.
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1
	cfg.Cost.GASGatherBytesPerSec = 1000
	cfg.Cost.GASRound = 0
	cfg.Cost.PhaseBase = 0
	cfg.Cost.BarrierPerMachine = 0
	cfg.Cost.StragglerLogFactor = 0
	cfg.Cost.GASAsyncDepthDiv = 0
	c := sim.New(cfg)
	g := NewGraph(c, &Star{Center: 0, Leaves: []VertexID{1}})
	g.AddVertex(0, 0.0, 8, false, 0)
	g.AddVertex(1, 1.0, 8, false, 0)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if err := g.RunRound(sumProg{viewBytes: 4000}, nil); err != nil {
		t.Fatal(err)
	}
	// Center gathers 4000 bytes, leaf gathers 4000 bytes: 8 seconds of
	// serialization at 1000 B/s.
	if got := c.Now() - before; got < 8 {
		t.Errorf("gather serialization charged %v, want >= 8", got)
	}
}

// Neighbourhoods come only from the edge set: a vertex the edge set does
// not connect gathers nothing and keeps its state through a round.
func TestGatherFollowsEdgeSet(t *testing.T) {
	c := testCluster(2)
	g := NewGraph(c, &Star{Center: 0, Leaves: []VertexID{1, 2}})
	g.AddVertex(0, 0.0, 8, false, -1)
	g.AddVertex(1, 1.0, 8, false, -1)
	g.AddVertex(2, 2.0, 8, false, -1)
	g.AddVertex(9, 9.0, 8, false, -1) // not in the star
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunRound(sumProg{viewBytes: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(0).Data.(float64); got != 3 {
		t.Errorf("center = %v, want 3 (leaves 1 + 2)", got)
	}
	if got := g.Vertex(9).Data.(float64); got != 9 {
		t.Errorf("isolated vertex = %v, want its own 9", got)
	}
}

package bsp

import (
	"testing"
	"testing/quick"

	"mlbench/internal/sim"
)

func testCluster(machines int) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	return sim.New(cfg)
}

func TestMessageDeliveryNextSuperstep(t *testing.T) {
	g := NewGraph(testCluster(2))
	g.AddVertex(1, 0.0, 8, false, 0)
	g.AddVertex(2, 0.0, 8, false, 1)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	// Step 0: vertex 1 sends 5.0 to vertex 2.
	err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if len(msgs) != 0 {
			t.Errorf("superstep 0 delivered %d messages", len(msgs))
		}
		if v.ID == 1 {
			ctx.Send(2, 5.0, 8)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.qOrder) != 1 {
		t.Fatalf("pending = %d", len(g.qOrder))
	}
	// Step 1: vertex 2 receives it.
	var got []float64
	err = g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID == 2 {
			for _, m := range msgs {
				got = append(got, m.Data.(float64))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 5.0 {
		t.Errorf("vertex 2 received %v", got)
	}
	if g.step != 2 {
		t.Errorf("Superstep = %d", g.step)
	}
}

func TestMultipleMessagesWithoutCombiner(t *testing.T) {
	g := NewGraph(testCluster(2))
	g.AddVertex(0, nil, 8, false, 0)
	for i := 1; i <= 5; i++ {
		g.AddVertex(VertexID(i), nil, 8, false, -1)
	}
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID != 0 {
			ctx.Send(0, float64(v.ID), 8)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var sum float64
	var count int
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID == 0 {
			count = len(msgs)
			for _, m := range msgs {
				sum += m.Data.(float64)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 || sum != 15 {
		t.Errorf("received %d messages summing %v", count, sum)
	}
}

func TestCombinerReducesMessages(t *testing.T) {
	g := NewGraph(testCluster(1)) // single machine: all sends share a source
	g.SetCombiner(func(a, b Msg) Msg {
		return Msg{Data: a.Data.(float64) + b.Data.(float64), Bytes: a.Bytes}
	})
	g.AddVertex(0, nil, 8, false, 0)
	for i := 1; i <= 5; i++ {
		g.AddVertex(VertexID(i), nil, 8, false, 0)
	}
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID != 0 {
			ctx.Send(0, float64(v.ID), 8)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []float64
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID == 0 {
			for _, m := range msgs {
				got = append(got, m.Data.(float64))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 15 {
		t.Errorf("combined messages = %v, want [15]", got)
	}
}

func TestAggregatorVisibleNextStep(t *testing.T) {
	g := NewGraph(testCluster(2))
	g.AddVertex(1, nil, 8, false, -1)
	g.AddVertex(2, nil, 8, false, -1)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		ctx.Aggregate("n", 1)
		if ctx.Agg("n") != 0 {
			t.Error("aggregate visible in same superstep")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if got := ctx.Agg("n"); got != 2 {
			t.Errorf("Agg(n) = %v, want 2", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScaledAggregation(t *testing.T) {
	g := NewGraph(testCluster(1)) // scale 10
	g.AddVertex(1, nil, 8, true, 0)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	_ = g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		ctx.Aggregate("n", 1)
		return nil
	})
	_ = g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if got := ctx.Agg("n"); got != 10 { // one real vertex = 10 paper vertices
			t.Errorf("scaled Agg = %v, want 10", got)
		}
		return nil
	})
}

func TestSharedValues(t *testing.T) {
	c := testCluster(3)
	g := NewGraph(c)
	g.AddVertex(0, nil, 8, false, 0)
	g.AddVertex(1, nil, 8, false, 1)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID == 0 {
			ctx.SetShared("model", "params-v1", 1000)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Each machine now holds one copy of the shared value.
	base := int64(2 * 8) // two model vertices
	if used := c.TotalMemUsed(); used != base+3*1000 {
		t.Errorf("shared residence = %d, want %d", used, base+3*1000)
	}
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if got := ctx.Shared("model"); got != "params-v1" {
			t.Errorf("Shared = %v", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexLoadOOM(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1000
	cfg.MemBytes = 1 << 20
	g := NewGraph(sim.New(cfg))
	// 100 scaled word vertices x 200B x heap 4 x scale 1000 = 80 MB > 1 MB.
	for i := 0; i < 100; i++ {
		g.AddVertex(VertexID(i), nil, 200, true, 0)
	}
	if err := g.Load(); !sim.IsOOM(err) {
		t.Fatalf("expected load OOM, got %v", err)
	}
}

func TestInflightGrowsWithClusterSize(t *testing.T) {
	// The same per-machine traffic OOMs at a large cluster size but not a
	// small one: the paper's cluster-size-dependent Giraph failures.
	run := func(machines int) error {
		cfg := sim.DefaultConfig(machines)
		cfg.Scale = 1000
		cfg.MemBytes = 64 << 20 // 64 MB budget
		g := NewGraph(sim.New(cfg))
		// One model vertex per machine and 20 scaled data vertices per
		// machine; every data vertex receives a 2KB model message.
		for mc := 0; mc < machines; mc++ {
			g.AddVertex(VertexID(1_000_000+mc), nil, 64, false, mc)
			for i := 0; i < 20; i++ {
				g.AddVertex(VertexID(mc*1000+i), nil, 64, true, mc)
			}
		}
		if err := g.Load(); err != nil {
			return err
		}
		if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
			if v.ID >= 1_000_000 {
				mc := int(v.ID - 1_000_000)
				for i := 0; i < 20; i++ {
					ctx.Send(VertexID(mc*1000+i), nil, 2048)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		return g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error { return nil })
	}
	// Per machine resident = 20 x 2KB x 1000 scale x 4 heap x f(M)
	//                      = 160 MB x f(M); f(5) ~ 0.04 -> 6.4MB fits,
	//                        f(100) ~ 0.45 -> 73MB > 64MB fails.
	if err := run(5); err != nil {
		t.Errorf("5 machines should fit: %v", err)
	}
	if err := run(100); !sim.IsOOM(err) {
		t.Errorf("100 machines should OOM, got %v", err)
	}
}

func TestSuperstepAdvancesClock(t *testing.T) {
	c := testCluster(2)
	g := NewGraph(c)
	g.AddVertex(1, nil, 8, false, -1)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	before := c.Now()
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= before {
		t.Error("superstep did not advance clock")
	}
}

func TestSendToUnknownVertexPanics(t *testing.T) {
	g := NewGraph(testCluster(1))
	g.AddVertex(1, nil, 8, false, 0)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		ctx.Send(999, nil, 8)
		return nil
	})
}

func TestRunBeforeLoadFails(t *testing.T) {
	g := NewGraph(testCluster(1))
	if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error { return nil }); err == nil {
		t.Fatal("expected error before Load")
	}
}

func TestMessageBufferFreedAfterSuperstep(t *testing.T) {
	c := testCluster(1)
	g := NewGraph(c)
	g.AddVertex(1, nil, 8, false, 0)
	g.AddVertex(2, nil, 8, false, 0)
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	loaded := c.TotalMemUsed()
	_ = g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
		if v.ID == 1 {
			ctx.Send(2, nil, 1<<20)
		}
		return nil
	})
	_ = g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error { return nil })
	if used := c.TotalMemUsed(); used != loaded {
		t.Errorf("message buffers leaked: %d vs %d", used, loaded)
	}
}

// Property: every message sent in one superstep is delivered exactly once
// in the next (no loss, no duplication), for arbitrary send patterns.
func TestQuickMessageConservation(t *testing.T) {
	f := func(dests []uint8) bool {
		const nVerts = 8
		g := NewGraph(testCluster(2))
		for i := 0; i < nVerts; i++ {
			g.AddVertex(VertexID(i), nil, 8, false, -1)
		}
		if err := g.Load(); err != nil {
			return false
		}
		sent := map[VertexID]int{}
		if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
			if v.ID != 0 {
				return nil
			}
			for _, d := range dests {
				dst := VertexID(int(d) % nVerts)
				ctx.Send(dst, int(d), 8)
				sent[dst]++
			}
			return nil
		}); err != nil {
			return false
		}
		// One slot per vertex: the two machines compute concurrently, and
		// a shared map would race.
		got := make([]int, nVerts)
		if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
			got[v.ID] += len(msgs)
			return nil
		}); err != nil {
			return false
		}
		for dst, n := range got {
			if sent[VertexID(dst)] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Every vertex computes in every superstep, with or without messages:
// the tasks drive the loop for a fixed number of supersteps.
func TestEveryVertexComputesEachSuperstep(t *testing.T) {
	g := NewGraph(testCluster(2))
	for id := VertexID(1); id <= 4; id++ {
		g.AddVertex(id, 0, 8, false, -1)
	}
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		// Machines compute concurrently: each vertex counts its own runs.
		if err := g.RunSuperstep(func(ctx *Context, v *Vertex, msgs []Msg) error {
			v.Data = v.Data.(int) + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for id := VertexID(1); id <= 4; id++ {
		if runs := g.Vertex(id).Data.(int); runs != 3 {
			t.Errorf("vertex %d ran %d times in 3 supersteps", id, runs)
		}
	}
}

// A vertex lands on the machine it names, or on a machine derived from
// its id alone, so placement never depends on insertion order.
func TestVertexPlacement(t *testing.T) {
	a, b := NewGraph(testCluster(4)), NewGraph(testCluster(4))
	if v := a.AddVertex(7, nil, 8, false, 3); v.Machine() != 3 {
		t.Errorf("explicit placement: machine %d, want 3", v.Machine())
	}
	for id := VertexID(10); id < 30; id++ {
		a.AddVertex(id, nil, 8, false, -1)
	}
	for id := VertexID(29); id >= 10; id-- {
		b.AddVertex(id, nil, 8, false, -1)
	}
	used := map[int]bool{}
	for id := VertexID(10); id < 30; id++ {
		ma, mb := a.Vertex(id).Machine(), b.Vertex(id).Machine()
		if ma != mb {
			t.Fatalf("vertex %d on machine %d or %d depending on insertion order", id, ma, mb)
		}
		used[ma] = true
	}
	if len(used) < 3 {
		t.Errorf("20 hashed vertices used only %d of 4 machines", len(used))
	}
}

// A second AddVertex with an existing id would leave the first vertex in
// its machine's list, still computing and charged memory, so it panics.
func TestAddVertexDuplicatePanics(t *testing.T) {
	g := NewGraph(testCluster(2))
	g.AddVertex(7, nil, 8, false, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on duplicate vertex")
		}
		if got := g.Vertex(7).Machine(); got != 0 || len(g.byMach[1]) != 0 {
			t.Errorf("duplicate AddVertex changed the graph: vertex 7 on machine %d, machine 1 holds %d vertices", got, len(g.byMach[1]))
		}
	}()
	g.AddVertex(7, nil, 8, false, 1)
}

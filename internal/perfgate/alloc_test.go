package perfgate

import (
	"runtime"
	"testing"

	"mlbench/internal/bsp"
	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/models/impute"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/lassotask"
	"mlbench/internal/tasks/task"
	"mlbench/internal/workload"
)

// Absolute allocs/op ceilings for the streamed-partition substrate.
// They pin the substrate's allocation behaviour in absolute terms, so a
// change that reintroduces per-element or per-machine-quadratic
// allocation fails `go test` directly with no baseline needed.

// Streaming a partition through a pooled cursor must not allocate per
// element: one warm pass over 64k elements is a cursor, a pooled buffer
// hand-back, and change.
func TestStreamSubstrateAllocCeilings(t *testing.T) {
	const n = 65_536
	src := sim.NewSource(n, 0, func() func() float64 {
		rng := randgen.New(23)
		return func() float64 { return rng.Float64() }
	})
	src.Each(func(float64) {}) // warm the chunk pool
	perPass := testing.AllocsPerRun(10, func() {
		sum := 0.0
		src.Each(func(v float64) { sum += v })
		Sink += sum
	})
	// 16 chunks/pass; the budget is a cursor + generator + a few pool
	// round trips, far under one alloc per chunk boundary would imply.
	if perPass > 32 {
		t.Errorf("streaming 64k elements cost %.0f allocs, ceiling 32: the chunk pool is not being reused", perPass)
	}

	// A wide phase must stay O(machines) with a small constant: the task
	// list plus its closures, with the per-phase working set recycled via
	// the scratch stack.
	const machines = 10_000
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 1000
	cfg.HostWorkers = 4
	cl := sim.New(cfg)
	phase := func() {
		err := cl.RunPhaseF("gate", func(machine int, m *sim.Meter) error {
			m.ChargeBulk(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	phase() // warm the scratch stack
	perPhase := testing.AllocsPerRun(5, phase)
	if perPhase > 5*machines {
		t.Errorf("10k-machine phase cost %.0f allocs (%.1f/machine), ceiling %d: phase working sets are not being recycled",
			perPhase, perPhase/machines, 5*machines)
	}
}

// Walking a partition's blocks in order — a machine's 80 super vertices —
// must generate each element about once, not replay every block's
// prefix (which costs ~40x the partition per pass). The ceiling allows
// one chunk of slack.
func TestStreamBlockWalkRegenerationCeiling(t *testing.T) {
	const n, blocks = 65_536, 80
	generated := 0
	src := sim.NewSource(n, 0, func() func() float64 {
		rng := randgen.New(23)
		return func() float64 { generated++; return rng.Float64() }
	})
	for b := 0; b < blocks; b++ {
		src.EachRange(b*n/blocks, (b+1)*n/blocks, func(v float64) { Sink += v })
	}
	if ceiling := n + src.ChunkSize(); generated > ceiling {
		t.Errorf("an in-order %d-block pass over %d elements generated %d, ceiling %d: blocks are replaying their prefix",
			blocks, n, generated, ceiling)
	}
}

// The Lasso Gram fold runs once per observation: it must not allocate.
func TestGramFoldAllocCeiling(t *testing.T) {
	spec := gramFoldSpec()
	if a := testing.AllocsPerRun(5, func() { _ = spec.Run(100) }); a != 0 {
		t.Errorf("folding 100 observations cost %.0f allocs, ceiling 0", a)
	}
}

// The Lasso Gram initialization sizes what a sender ships by its rows,
// not by the model. At P=256 with 32 senders (4 machines × 8 cores, 2
// rows each) the ceiling is the bytes of 4 P×P matrices (the receivers'
// rows, the assembled matrix, their scratch) plus half a dense row (4P
// bytes) for each of the P messages or pairs each sender ships: the
// virtual clock pins their count, and the engines' bookkeeping for one
// (staging, queue, meter record; combiner entry, index slot) is about
// 200-330 B. That is 10 MiB; the initialization allocates about 3.4 MiB
// on Giraph and 4.8 MiB on Spark (3.5 and 5.6 MiB under -race). With one
// dense P×P partial per sender, twice the allowance, it allocated
// 19.9 MiB and 35.6 MiB. The initialization is measured as a
// one-iteration run less one iteration, the difference between a two-
// and a one-iteration run.
func TestLassoGramAllocCeiling(t *testing.T) {
	const p, machines, cores = 256, 4, 8
	runs := []struct {
		name string
		run  func(*sim.Cluster, lassotask.Config) (*task.Result, error)
	}{
		{"giraph-sv", lassotask.RunGiraph},
		{"spark", lassotask.RunSpark},
	}
	for _, r := range runs {
		bytes := func(iters int) int64 {
			c := sim.DefaultConfig(machines)
			c.Cores, c.Scale, c.HostWorkers = cores, 1000, 1
			cfg := lassotask.Config{P: p, PointsPerMachine: 16_000, Iterations: iters, Seed: 3, SuperVertex: true}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := r.run(sim.New(c), cfg); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		one, two := bytes(1), bytes(2)
		init := one - (two - one)
		ceiling := int64(4*p*p*8 + machines*cores*p*4*p)
		t.Logf("%s: initialization allocates %.2f MiB, ceiling %.2f MiB", r.name, float64(init)/(1<<20), float64(ceiling)/(1<<20))
		if init >= ceiling {
			t.Errorf("%s: Gram initialization allocates %d bytes, ceiling %d: senders are shipping dense partials", r.name, init, ceiling)
		}
	}
}

// A GMM membership draw runs once per point per iteration: at the
// widest shape any figure uses (K=10, D=100) it must not allocate.
func TestGMMMembershipAllocCeiling(t *testing.T) {
	const k, d = 10, 100
	rng := randgen.New(5)
	variance := make(linalg.Vec, d)
	for i := range variance {
		variance[i] = 1
	}
	p, err := gmm.Init(rng, gmm.HyperFromMoments(k, make(linalg.Vec, d), variance))
	if err != nil {
		t.Fatal(err)
	}
	x := p.Mu[3].Clone()
	if a := testing.AllocsPerRun(20, func() { Sink += float64(p.SampleMembership(rng, x)) }); a != 0 {
		t.Errorf("one membership draw at K=%d D=%d cost %.0f allocs, ceiling 0", k, d, a)
	}
}

// An imputation update runs once per point per iteration. With its
// mask already in the plan it factors nothing: at Figure 5's shape
// (K=10, D=10) it may allocate at most 8 times, the mask key and the
// conditional draw; factoring the blocks per point costs about 80.
func TestImputeUpdateAllocCeiling(t *testing.T) {
	const k, d, n = 10, 10, 64
	rng := randgen.New(6)
	variance := make(linalg.Vec, d)
	for i := range variance {
		variance[i] = 1
	}
	p, err := gmm.Init(rng, gmm.HyperFromMoments(k, make(linalg.Vec, d), variance))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := impute.NewPlan(p.Pi, p.Mu, p.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	xs, masks := make([]linalg.Vec, n), make([][]bool, n)
	for i := range xs {
		xs[i], masks[i] = p.Mu[i%k].Clone(), make([]bool, d)
		for j := range masks[i] {
			masks[i][j] = rng.Float64() < 0.5
		}
	}
	c := 0
	pass := func() {
		for i, x := range xs {
			if err := plan.Impute(rng, x, masks[i], &c); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm every (mask, cluster) entry the points can draw.
	for i := 0; i < 50; i++ {
		pass()
	}
	if a := testing.AllocsPerRun(20, pass) / n; a > 8 {
		t.Errorf("one imputation update with a warm plan at K=%d D=%d cost %.1f allocs, ceiling 8: the plan is not being reused", k, d, a)
	}
}

// Streaming GMM points carves them from growing slabs: a 4,096-point
// pass is about 21 slabs plus the generator and cursor, not one
// allocation per point.
func TestGMMStreamAllocCeiling(t *testing.T) {
	const n = 4096
	mu := workload.PlantedMeans(randgen.New(9), 4, 10, 8)
	src := sim.NewSource(n, 0, func() func() linalg.Vec {
		return (&workload.PlantedMixture{Mu: mu}).Open(randgen.New(11))
	})
	src.Each(func(linalg.Vec) {}) // warm the chunk pool
	perPass := testing.AllocsPerRun(5, func() {
		src.Each(func(x linalg.Vec) { Sink += x[0] })
	})
	if perPass > 64 {
		t.Errorf("streaming %d GMM points cost %.0f allocs, ceiling 64: points are being allocated one by one", n, perPass)
	}
}

// GROUP BY keeps its groups in a key index and carves their running
// state from chunks: 64k rows folding into 4,096 groups on one machine
// cost a few allocations per chunk and per index doubling, not several
// per group (158 here; the ordmap groups with one state per group cost
// 28,881).
func TestGroupAggAllocCeiling(t *testing.T) {
	const rows, groups = 65_536, 4096
	cfg := sim.DefaultConfig(1)
	cfg.HostWorkers = 1
	eng := relational.NewEngine(sim.New(cfg))
	in := relational.NewTable("in", relational.Floats("k", "x"), 1)
	for i := 0; i < rows; i++ {
		in.Parts[0] = append(in.Parts[0], relational.T(float64(i*7919%groups), float64(i)))
	}
	plan := relational.GroupAggP(relational.ScanT(in), []int{0}, []relational.AggSpec{
		{Kind: relational.AggSum, Col: 1, Name: "s"},
		{Kind: relational.AggMax, Col: 1, Name: "hi"},
	})
	run := func() {
		out, err := eng.Run("g", plan)
		if err != nil {
			t.Fatal(err)
		}
		if n := out.NumRows(); n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
	}
	if a := testing.AllocsPerRun(3, run); a > 400 {
		t.Errorf("grouping %d rows into %d groups cost %.0f allocs, ceiling 400: groups are being allocated one by one", rows, groups, a)
	}
}

// Select and project are views that stream their input, a generator may
// yield one reused row, and GROUP BY keeps its groups' state in one flat
// slice per task: a Project→GroupAgg pass over a 64k-row generator costs
// allocations per machine, phase and buffer growth, not per row (376
// here; the materialized projection and one carved state per group cost
// 66,057).
func TestStreamedViewAllocCeiling(t *testing.T) {
	const rows, groups, machines = 65_536, 1024, 4
	cfg := sim.DefaultConfig(machines)
	cfg.HostWorkers = 1
	eng := relational.NewEngine(sim.New(cfg))
	per := rows / machines
	in := &relational.Table{Name: "in", Schema: relational.Floats("k", "x"), Scaled: true, GenRows: []int{per, per, per, per}}
	in.Gen = func(part int, yield func(relational.Tuple)) {
		row := make(relational.Tuple, 2)
		for i := part * per; i < (part+1)*per; i++ {
			row[0], row[1] = float64(i*7919%groups), float64(i)
			yield(row)
		}
	}
	sq := relational.ProjectP(relational.ScanT(in), relational.Floats("k", "sq"), func(t, out relational.Tuple) {
		out[0], out[1] = t[0], t[1]*t[1]
	})
	plan := relational.GroupAggP(sq, []int{0}, []relational.AggSpec{
		{Kind: relational.AggSum, Col: 1, Name: "s"},
		{Kind: relational.AggCount, Name: "n"},
	})
	run := func() {
		out, err := eng.Run("g", plan)
		if err != nil {
			t.Fatal(err)
		}
		if n := out.NumRows(); n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
	}
	if a := testing.AllocsPerRun(3, run); a > 768 {
		t.Errorf("projecting and grouping %d generated rows cost %.0f allocs, ceiling 768: rows or groups are being allocated one by one", rows, a)
	}
}

// A superstep's sends are staged in a flat per-machine index whose
// buffers the graph reuses, and queued in one flat array: 100k sends to
// distinct vertices, and their delivery, cost a few allocations per
// machine and per buffer, not one per message (34 here; the ordmap
// stages, queue and inboxes cost 402,041).
func TestBSPSendAllocCeiling(t *testing.T) {
	const n, machines = 100_000, 4
	cfg := sim.DefaultConfig(machines)
	cfg.HostWorkers = 1
	g := bsp.NewGraph(sim.New(cfg))
	g.AddVertex(0, nil, 8, false, 0)
	for i := 1; i <= n; i++ {
		g.AddVertex(bsp.VertexID(i), nil, 8, false, -1)
	}
	if err := g.Load(); err != nil {
		t.Fatal(err)
	}
	payload := new(float64) // shared, so the payloads cost nothing
	send := func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		if v.ID == 0 {
			for i := 1; i <= n; i++ {
				ctx.Send(bsp.VertexID(i), payload, 8)
			}
		}
		return nil
	}
	deliver := func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		if v.ID != 0 && len(msgs) != 1 {
			t.Fatalf("vertex %d received %d messages", v.ID, len(msgs))
		}
		return nil
	}
	step := func() {
		if err := g.RunSuperstep(send); err != nil {
			t.Fatal(err)
		}
		if err := g.RunSuperstep(deliver); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(3, step); a > 128 {
		t.Errorf("%d sends and their delivery cost %.0f allocs, ceiling 128: messages are being staged or queued one by one", n, a)
	}
}

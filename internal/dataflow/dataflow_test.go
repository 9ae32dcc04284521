package dataflow

import (
	"math"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mlbench/internal/randgen"
	"mlbench/internal/sim"
)

func testCluster(machines int) *sim.Cluster {
	cfg := sim.DefaultConfig(machines)
	cfg.Scale = 10
	return sim.New(cfg)
}

func intSizer(int) int64                 { return 8 }
func pairSizer(Pair[int, float64]) int64 { return 16 }
func pairIntSizer(Pair[int, int]) int64  { return 16 }

// sliceRDD splits vals into parts contiguous partitions.
func sliceRDD(ctx *Context, vals []int, parts int) *RDD[int] {
	return Generate(ctx, parts, intSizer, func(p int, r *randgen.RNG) []int {
		return vals[p*len(vals)/parts : (p+1)*len(vals)/parts]
	})
}

func rangeRDD(ctx *Context, n, parts int) *RDD[int] {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	return sliceRDD(ctx, vals, parts)
}

// pairMap gathers a pair RDD with distinct keys into a map.
func pairMap[K comparable, V any](r *RDD[Pair[K, V]]) (map[K]V, error) {
	pairs, err := CollectPairs(r)
	if err != nil {
		return nil, err
	}
	out := make(map[K]V, len(pairs))
	for _, p := range pairs {
		out[p.K] = p.V
	}
	return out, nil
}

func TestGenerateAndCollect(t *testing.T) {
	ctx := NewContext(testCluster(3), sim.ProfileCPP)
	r := rangeRDD(ctx, 100, 6)
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d elements, want 100", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d = %d", i, v)
		}
	}
}

func TestCount(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	n, err := Count(rangeRDD(ctx, 57, 4))
	if err != nil {
		t.Fatal(err)
	}
	if n != 57 {
		t.Errorf("Count = %d, want 57", n)
	}
}

func TestMap(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	r := rangeRDD(ctx, 10, 3)
	doubled := Map(r, intSizer, func(m *sim.Meter, x int) int { return 2 * x })
	got, err := Collect(doubled)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	want := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	r := rangeRDD(ctx, 20, 4)
	sums := MapPartitions(r, intSizer, func(m *sim.Meter, part []int) []int {
		s := 0
		for _, x := range part {
			s += x
		}
		return []int{s}
	})
	got, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("one output per partition expected, got %d", len(got))
	}
	total := 0
	for _, s := range got {
		total += s
	}
	if total != 190 {
		t.Errorf("partition sums total %d, want 190", total)
	}
}

func TestAggregate(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	r := rangeRDD(ctx, 10, 4)
	// Aggregate into (count, sum).
	type cs struct {
		n int
		s int
	}
	got, err := Aggregate(r,
		func() cs { return cs{} },
		func(m *sim.Meter, acc cs, x int) cs { return cs{acc.n + 1, acc.s + x} },
		func(m *sim.Meter, a, b cs) cs { return cs{a.n + b.n, a.s + b.s} },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != 10 || got.s != 45 {
		t.Errorf("Aggregate = %+v", got)
	}
}

func TestReduceByKeyMatchesReference(t *testing.T) {
	ctx := NewContext(testCluster(3), sim.ProfileCPP)
	r := rangeRDD(ctx, 200, 6)
	pairs := Map(r, pairSizer, func(m *sim.Meter, x int) Pair[int, float64] {
		return Pair[int, float64]{K: x % 7, V: float64(x)}
	})
	red := ReduceByKey(pairs, func(m *sim.Meter, a, b float64) float64 { return a + b })
	got, err := pairMap(red)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{}
	for x := 0; x < 200; x++ {
		want[x%7] += float64(x)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("key %d: got %v want %v", k, got[k], v)
		}
	}
}

func TestJoin(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	a := Map(rangeRDD(ctx, 6, 2), pairIntSizer, func(m *sim.Meter, x int) Pair[int, int] {
		return Pair[int, int]{K: x % 3, V: x}
	})
	b := Map(rangeRDD(ctx, 3, 2), pairIntSizer, func(m *sim.Meter, x int) Pair[int, int] {
		return Pair[int, int]{K: x, V: 100 + x}
	})
	joined, err := Collect(Join(a, b))
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0,1,2 each have 2 left values x 1 right value = 6 results.
	if len(joined) != 6 {
		t.Fatalf("join produced %d rows, want 6", len(joined))
	}
	for _, row := range joined {
		if row.V.A%3 != row.K || row.V.B != 100+row.K {
			t.Errorf("bad join row %+v", row)
		}
	}
}

func TestCacheAvoidsRecomputation(t *testing.T) {
	ctx := NewContext(testCluster(1), sim.ProfileCPP)
	computes := 0
	r := Generate(ctx, 2, intSizer, func(p int, rng *randgen.RNG) []int {
		computes++
		return []int{p}
	})
	cached := Map(r, intSizer, func(m *sim.Meter, x int) int { return x }).Cache()
	if _, err := Count(cached); err != nil {
		t.Fatal(err)
	}
	first := computes
	if _, err := Count(cached); err != nil {
		t.Fatal(err)
	}
	if computes != first {
		t.Errorf("cached RDD recomputed source: %d -> %d", first, computes)
	}
	if ctx.cluster.TotalMemUsed() == 0 {
		t.Error("cache charged no simulated memory")
	}
	cached.Unpersist()
	if ctx.cluster.TotalMemUsed() != 0 {
		t.Errorf("Unpersist left %d bytes", ctx.cluster.TotalMemUsed())
	}
}

func TestUncachedRecomputesLineage(t *testing.T) {
	ctx := NewContext(testCluster(1), sim.ProfileCPP)
	computes := 0
	r := Generate(ctx, 2, intSizer, func(p int, rng *randgen.RNG) []int {
		computes++
		return []int{p}
	})
	mapped := Map(r, intSizer, func(m *sim.Meter, x int) int { return x })
	_, _ = Count(mapped)
	_, _ = Count(mapped)
	if computes != 4 { // 2 partitions x 2 actions
		t.Errorf("computes = %d, want 4 (recompute per action)", computes)
	}
}

func TestCacheOOM(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1
	cfg.MemBytes = 100 // tiny machine
	ctx := NewContext(sim.New(cfg), sim.ProfileCPP)
	r := rangeRDD(ctx, 1000, 1).Cache() // 8000 bytes > 100
	_, err := Count(r)
	if !sim.IsOOM(err) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestDiskPersistChargesIOCost(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Scale = 1
	cfg.Cores = 1
	cfg.Cost.SparkJobLaunch = 0
	cfg.Cost.PhaseBase = 0
	cfg.Cost.BarrierPerMachine = 0
	cfg.Cost.StragglerLogFactor = 0
	cfg.Cost.DiskBytesPerSec = 1000
	ctx := NewContext(sim.New(cfg), sim.Profile{}) // zero-cost profile isolates disk I/O
	r := rangeRDD(ctx, 1000, 1).Persist(StorageDisk)
	if _, err := Count(r); err != nil { // materializes: writes 8000 bytes
		t.Fatal(err)
	}
	afterWrite := ctx.cluster.Now()
	if afterWrite < 8 { // 8000 bytes / 1000 Bps
		t.Errorf("disk write charged %v s, want >= 8", afterWrite)
	}
	if used := ctx.cluster.TotalMemUsed(); used != 0 {
		t.Errorf("disk persist should not hold memory, got %d", used)
	}
	if _, err := Count(r); err != nil { // re-read pays again
		t.Fatal(err)
	}
	if reread := ctx.cluster.Now() - afterWrite; reread < 8 {
		t.Errorf("disk re-read charged %v s, want >= 8", reread)
	}
}

func TestScaledCostsLargerThanModelCosts(t *testing.T) {
	run := func(model bool) float64 {
		cfg := sim.DefaultConfig(2)
		cfg.Scale = 100
		c := sim.New(cfg)
		ctx := NewContext(c, sim.ProfilePython)
		pairs := Map(rangeRDD(ctx, 100, 2), pairSizer, func(m *sim.Meter, x int) Pair[int, float64] {
			return Pair[int, float64]{K: x % 5, V: 1}
		})
		red := ReduceByKey(pairs, func(m *sim.Meter, a, b float64) float64 { return a + b })
		if model {
			red = red.AsModel()
		}
		start := c.Now()
		if _, err := Collect(red); err != nil {
			t.Fatal(err)
		}
		return c.Now() - start
	}
	if ds, ms := run(false), run(true); ds <= ms {
		t.Errorf("scaled collect (%v) should cost more than model collect (%v)", ds, ms)
	}
}

func TestBroadcastChargesEveryMachine(t *testing.T) {
	c := testCluster(3)
	ctx := NewContext(c, sim.ProfilePython)
	if err := ctx.Broadcast(1000, "model"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if c.Machine(i).MemUsed() != 1000 {
			t.Errorf("machine %d holds %d, want 1000", i, c.Machine(i).MemUsed())
		}
	}
	ctx.ReleaseBroadcast(1000)
	if c.TotalMemUsed() != 0 {
		t.Errorf("ReleaseBroadcast left %d", c.TotalMemUsed())
	}
}

func TestActionsAdvanceClock(t *testing.T) {
	c := testCluster(2)
	ctx := NewContext(c, sim.ProfilePython)
	before := c.Now()
	if _, err := Count(rangeRDD(ctx, 1000, 4)); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= before {
		t.Error("action did not advance virtual clock")
	}
}

func TestShuffleReusedAcrossActions(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	// The two partitions generate on two machines concurrently.
	var sourceComputes atomic.Int64
	r := Generate(ctx, 2, intSizer, func(p int, rng *randgen.RNG) []int {
		sourceComputes.Add(1)
		return []int{p, p + 2}
	})
	pairs := Map(r, pairIntSizer, func(m *sim.Meter, x int) Pair[int, int] {
		return Pair[int, int]{K: x % 2, V: x}
	})
	red := ReduceByKey(pairs, func(m *sim.Meter, a, b int) int { return a + b })
	if _, err := Count(red); err != nil {
		t.Fatal(err)
	}
	after := sourceComputes.Load()
	if _, err := Count(red); err != nil { // shuffle files persist, like Spark
		t.Fatal(err)
	}
	if got := sourceComputes.Load(); got != after {
		t.Errorf("second action re-ran the shuffle: %d -> %d", after, got)
	}
}

// Property: ReduceByKey over random data matches a reference fold for any
// key range and data.
func TestQuickReduceByKeyReference(t *testing.T) {
	f := func(data []uint8, keyMod uint8) bool {
		if keyMod == 0 {
			keyMod = 1
		}
		ctx := NewContext(testCluster(2), sim.ProfileCPP)
		vals := make([]int, len(data))
		for i, d := range data {
			vals[i] = int(d)
		}
		r := sliceRDD(ctx, vals, 3)
		pairs := Map(r, pairIntSizer, func(m *sim.Meter, x int) Pair[int, int] {
			return Pair[int, int]{K: x % int(keyMod), V: x}
		})
		got, err := pairMap(ReduceByKey(pairs, func(m *sim.Meter, a, b int) int { return a + b }))
		if err != nil {
			return false
		}
		want := map[int]int{}
		for _, x := range vals {
			want[x%int(keyMod)] += x
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Count == len after a transformation that drops elements.
func TestQuickCountInvariant(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		p := int(parts%8) + 1
		ctx := NewContext(testCluster(2), sim.ProfileCPP)
		r := rangeRDD(ctx, int(n), p)
		evens := MapPartitions(r, intSizer, func(m *sim.Meter, part []int) []int {
			var out []int
			for _, x := range part {
				if x%2 == 0 {
					out = append(out, x)
				}
			}
			return out
		})
		c, err := Count(evens)
		if err != nil {
			return false
		}
		return c == (int(n)+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Collect holds the whole simulated result on the driver for a moment:
// a data-proportional collect larger than the driver's memory fails with
// OOM (the paper's 100-machine Spark LDA failures), and a successful one
// leaves nothing allocated.
func TestCollectDriverOOM(t *testing.T) {
	cfg := sim.DefaultConfig(2)
	cfg.Scale = 1000
	cfg.MemBytes = 100_000
	c := sim.New(cfg)
	ctx := NewContext(c, sim.ProfileCPP)
	if _, err := Collect(rangeRDD(ctx, 20, 2)); err == nil || !sim.IsOOM(err) {
		t.Fatalf("160 KB collect on a 100 KB driver: err = %v, want OOM", err)
	}
	small := NewContext(testCluster(2), sim.ProfileCPP)
	if _, err := Collect(rangeRDD(small, 20, 2)); err != nil {
		t.Fatal(err)
	}
	if used := small.cluster.TotalMemUsed(); used != 0 {
		t.Errorf("collect left %d bytes on the driver", used)
	}
}

func TestCacheIsMemoryPersist(t *testing.T) {
	a := NewContext(testCluster(2), sim.ProfileCPP)
	b := NewContext(testCluster(2), sim.ProfileCPP)
	if _, err := Count(rangeRDD(a, 100, 4).Cache()); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(rangeRDD(b, 100, 4).Persist(StorageMemory)); err != nil {
		t.Fatal(err)
	}
	if a.cluster.TotalMemUsed() != b.cluster.TotalMemUsed() || a.cluster.Now() != b.cluster.Now() {
		t.Errorf("Cache (%d B, %v s) differs from Persist(StorageMemory) (%d B, %v s)",
			a.cluster.TotalMemUsed(), a.cluster.Now(), b.cluster.TotalMemUsed(), b.cluster.Now())
	}
}

// Join is an inner join: keys present on one side only produce no rows.
func TestJoinDropsUnmatchedKeys(t *testing.T) {
	ctx := NewContext(testCluster(2), sim.ProfileCPP)
	a := Map(rangeRDD(ctx, 4, 2), pairIntSizer, func(m *sim.Meter, x int) Pair[int, int] {
		return Pair[int, int]{K: x, V: x} // keys 0..3
	})
	b := Map(rangeRDD(ctx, 4, 2), pairIntSizer, func(m *sim.Meter, x int) Pair[int, int] {
		return Pair[int, int]{K: x + 2, V: -x} // keys 2..5
	})
	joined, err := Collect(Join(a, b))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int]bool{}
	for _, row := range joined {
		keys[row.K] = true
		if row.V.A != row.K || row.V.B != 2-row.K {
			t.Errorf("bad join row %+v", row)
		}
	}
	if len(joined) != 2 || !keys[2] || !keys[3] {
		t.Fatalf("joined = %+v, want keys 2 and 3 only", joined)
	}
}

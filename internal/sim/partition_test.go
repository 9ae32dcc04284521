package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// seqSource builds an n-element source whose generator is a stateful
// counter — the same shape as the seeded-RNG generators the tasks use,
// where element i depends on having drawn elements 0..i-1.
func seqSource(n, chunk int) *Source[int] {
	return NewSource(n, chunk, func() func() int {
		i := 0
		return func() int {
			v := i * i
			i++
			return v
		}
	})
}

// Chunked iteration must visit exactly the elements of the materialized
// partition, in order, at any chunk size — including chunk sizes that do
// not divide the length, chunk 1, and chunks larger than the partition.
func TestSourceChunkedMatchesMaterialized(t *testing.T) {
	const n = 1000
	want := seqSource(n, 0).Materialize()
	if len(want) != n {
		t.Fatalf("Materialize len = %d, want %d", len(want), n)
	}
	for _, chunk := range []int{1, 2, 3, 7, 64, 999, 1000, 1001, 100000, 0, -5} {
		s := seqSource(n, chunk)
		var got []int
		s.Each(func(v int) { got = append(got, v) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk %d: streamed elements differ from materialized", chunk)
		}
		// Defaulted and oversized chunks clamp to the partition length so
		// pooled buffers never outgrow the data.
		if chunk <= 0 && s.ChunkSize() != n {
			t.Errorf("chunk %d: ChunkSize = %d, want clamp to n=%d", chunk, s.ChunkSize(), n)
		}
		if chunk > n && s.ChunkSize() != n {
			t.Errorf("chunk %d: ChunkSize = %d, want clamp to n=%d", chunk, s.ChunkSize(), n)
		}
	}
}

// A cursor must never hand out more than one chunk's worth of elements
// at a time, and the final chunk carries the remainder.
func TestCursorChunkBounds(t *testing.T) {
	s := seqSource(10, 4)
	cur := s.Range(0, s.Len())
	defer cur.Close()
	var sizes []int
	for {
		chunk, ok := cur.Next()
		if !ok {
			break
		}
		sizes = append(sizes, len(chunk))
	}
	if !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
		t.Errorf("chunk sizes = %v, want [4 4 2]", sizes)
	}
}

// Range must skip to lo: block [lo, hi) of a stateful generator equals
// the same slice of the materialized stream.
func TestSourceRangeBlocks(t *testing.T) {
	const n = 100
	s := seqSource(n, 8)
	want := s.Materialize()
	for _, r := range [][2]int{{0, 0}, {0, 1}, {13, 29}, {50, 100}, {99, 100}, {0, 100}} {
		got := s.MaterializeRange(r[0], r[1])
		if !reflect.DeepEqual(got, want[r[0]:r[1]]) {
			t.Errorf("range [%d,%d) differs from materialized slice", r[0], r[1])
		}
	}
	// Two concurrent-in-time cursors over one source are independent:
	// interleaving two passes sees the same stream twice.
	a, b := s.Range(0, s.Len()), s.Range(0, s.Len())
	defer a.Close()
	defer b.Close()
	ca, _ := a.Next()
	cb, _ := b.Next()
	if !reflect.DeepEqual(append([]int{}, ca...), append([]int{}, cb...)) {
		t.Error("two cursors over one source diverged")
	}
}

// genCounts counts a counting source's generator opens and the elements
// its generators yield.
type genCounts struct{ opens, elems atomic.Int64 }

// countingSource is seqSource with its generator work counted.
func countingSource(n, chunk int) (*Source[int], *genCounts) {
	var c genCounts
	return NewSource(n, chunk, func() func() int {
		c.opens.Add(1)
		i := 0
		return func() int {
			c.elems.Add(1)
			v := i * i
			i++
			return v
		}
	}), &c
}

// Walking a partition's blocks in order — the super-vertex shape, 80
// blocks per machine — must open one generator and yield each element
// exactly once, and the walk that reaches the end must leave nothing
// parked.
func TestSourceInOrderBlocksGenerateOnce(t *testing.T) {
	const n, blocks = 10_007, 80
	want := seqSource(n, 0).Materialize()
	s, c := countingSource(n, 64)
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		if got := s.MaterializeRange(lo, hi); !reflect.DeepEqual(got, want[lo:hi]) {
			t.Fatalf("block %d [%d,%d) differs from materialized slice", b, lo, hi)
		}
	}
	if o, e := c.opens.Load(), c.elems.Load(); o != 1 || e != n {
		t.Errorf("in-order walk: %d opens, %d elements generated; want 1 open, %d elements", o, e, n)
	}
	if s.parked != nil {
		t.Error("a walk that reached the end left a generator parked")
	}
}

// checkRanges walks each [lo, hi) of rs and compares it with the
// materialized partition.
func checkRanges(t *testing.T, s *Source[int], want []int, rs [][2]int) {
	t.Helper()
	for _, r := range rs {
		if got := s.MaterializeRange(r[0], r[1]); !reflect.DeepEqual(got, want[r[0]:r[1]]) {
			t.Errorf("range [%d,%d) differs from materialized slice", r[0], r[1])
		}
	}
}

// Out-of-order walks — shuffled, repeated, overlapping and empty blocks —
// must see exactly the materialized slices whether or not they meet a
// parked generator.
func TestSourceRangeAnyOrderMatchesMaterialized(t *testing.T) {
	const n = 500
	want := seqSource(n, 0).Materialize()
	var blocks [][2]int
	for lo := 0; lo < n; lo += 50 {
		blocks = append(blocks, [2]int{lo, lo + 50})
	}
	r := rand.New(rand.NewSource(5))
	r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	walks := map[string][][2]int{
		"shuffled":    blocks,
		"repeated":    {{100, 150}, {100, 150}, {150, 200}, {150, 200}, {100, 150}},
		"overlapping": {{0, 40}, {30, 90}, {60, 120}, {119, 400}, {200, 210}},
		"empty":       {{0, 0}, {20, 20}, {20, 30}, {30, 30}, {30, 30}, {500, 500}, {499, 500}},
	}
	for name, rs := range walks {
		t.Run(name, func(t *testing.T) {
			for _, chunk := range []int{1, 7, 64} {
				checkRanges(t, seqSource(n, chunk), want, rs)
			}
		})
	}
}

// Two cursors open at once over the same block must not share the parked
// generator: each sees the block in full.
func TestSourceParkedGeneratorHasOneOwner(t *testing.T) {
	const n = 100
	want := seqSource(n, 0).Materialize()
	s := seqSource(n, 4)
	s.MaterializeRange(0, 10) // parks at 10
	a, b := s.Range(10, 20), s.Range(10, 20)
	defer a.Close()
	defer b.Close()
	for _, cur := range []*Cursor[int]{a, b, a, b, a, b} {
		chunk, ok := cur.Next()
		if !ok {
			continue
		}
		lo := cur.pos - len(chunk)
		if !reflect.DeepEqual(chunk, want[lo:cur.pos]) {
			t.Fatalf("cursor chunk [%d,%d) differs from materialized slice", lo, cur.pos)
		}
	}
}

// Concurrent walks from many goroutines over one source contend for the
// parked slot; every block must still match (run under -race).
func TestSourceConcurrentRangesMatchMaterialized(t *testing.T) {
	const n, workers = 2_000, 8
	want := seqSource(n, 0).Materialize()
	s := seqSource(n, 16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var rs [][2]int
			for lo := 0; lo < n; {
				hi := lo + r.Intn(200)
				if hi > n {
					hi = n
				}
				rs = append(rs, [2]int{lo, hi})
				if r.Intn(4) > 0 {
					lo = hi // mostly in order, sometimes repeat a block
				}
			}
			checkRanges(t, s, want, rs)
		}(int64(w))
	}
	wg.Wait()
}

// A cursor closed early parks at the position it reached; a later block
// starting there, or past it, resumes that generator and discards only
// the gap.
func TestSourceResumeAfterEarlyClose(t *testing.T) {
	const n = 200
	want := seqSource(n, 0).Materialize()
	for _, lo := range []int{8, 37} {
		s, c := countingSource(n, 8)
		cur := s.Range(0, 100)
		if _, ok := cur.Next(); !ok {
			t.Fatal("empty first chunk")
		}
		cur.Close() // parked at 8
		checkRanges(t, s, want, [][2]int{{lo, 60}})
		if o, e := c.opens.Load(), c.elems.Load(); o != 1 || e != 60 {
			t.Errorf("resume at %d: %d opens, %d elements generated; want 1 open, 60 elements", lo, o, e)
		}
	}
}

// A generator that panics mid-chunk is at an unknown position and must
// not be parked: the next walk sees the true stream.
func TestSourcePanickingGeneratorNotParked(t *testing.T) {
	const n = 50
	want := seqSource(n, 0).Materialize()
	var opens int
	s := NewSource(n, 8, func() func() int {
		opens++
		i, fail := 0, opens == 1
		return func() int {
			if fail && i == 5 {
				panic("generator failure")
			}
			v := i * i
			i++
			return v
		}
	})
	func() {
		cur := s.Range(0, 20)
		defer func() { _ = recover() }()
		defer cur.Close()
		cur.Next()
	}()
	checkRanges(t, s, want, [][2]int{{0, 20}, {20, 30}})
}

func TestSourceRangePanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range block")
		}
	}()
	seqSource(5, 2).Range(2, 6)
}

// The pooled chunk buffer must be cleared on Close so it cannot pin
// element storage across reuses.
func TestCursorCloseClearsBuffer(t *testing.T) {
	s := NewSource(3, 4, func() func() []int {
		return func() []int { return make([]int, 1000) }
	})
	cur := s.Range(0, s.Len())
	if _, ok := cur.Next(); !ok {
		t.Fatal("empty first chunk")
	}
	cur.Close()
	buf := s.pool.Get().(*[][]int)
	for i, v := range (*buf)[:cap(*buf)] {
		if v != nil {
			t.Fatalf("pooled buffer slot %d still pins element storage", i)
		}
	}
}

// ChunkElems resolves the cluster-level knob with the documented default.
func TestClusterChunkElems(t *testing.T) {
	if got := New(testConfig(1)).ChunkElems(); got != DefaultChunkElems {
		t.Errorf("default ChunkElems = %d, want %d", got, DefaultChunkElems)
	}
	cfg := testConfig(1)
	cfg.ChunkElems = 7
	if got := New(cfg).ChunkElems(); got != 7 {
		t.Errorf("ChunkElems = %d, want 7", got)
	}
}

// phaseTotals runs one phase of per-machine tasks on a cluster with the
// given machine and worker counts and returns the final clock plus a
// per-machine result vector computed inside the tasks.
func phaseTotals(t *testing.T, machines, workers int) (float64, []float64) {
	t.Helper()
	cfg := testConfig(machines)
	cfg.HostWorkers = workers
	c := New(cfg)
	out := make([]float64, machines)
	err := c.RunPhaseF("sweep", func(machine int, m *Meter) error {
		src := seqSource(50+machine%17, 1+machine%5)
		sum := 0.0
		src.Each(func(v int) { sum += float64(v) })
		out[machine] = sum
		m.ChargeBulk(sum)
		m.SendData(machine%3, float64(machine%3*100))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Now(), out
}

// RunPhase must shard machines over the bounded worker pool correctly at
// the boundary shapes the 10,000-machine sweep hits: far more machines
// than workers, fewer machines than workers, and worker counts that do
// not divide the machine count. The virtual clock and every per-machine
// result must be byte-identical across all of them.
func TestRunPhasePoolBoundaries(t *testing.T) {
	for _, machines := range []int{1, 3, 97, 1000} {
		wantClock, wantOut := phaseTotals(t, machines, 1)
		for _, workers := range []int{2, 3, 7, 8, machines, machines + 13, 4 * machines} {
			clock, out := phaseTotals(t, machines, workers)
			if clock != wantClock {
				t.Errorf("machines=%d workers=%d: clock %v != sequential %v", machines, workers, clock, wantClock)
			}
			if !reflect.DeepEqual(out, wantOut) {
				t.Errorf("machines=%d workers=%d: per-machine results differ from sequential", machines, workers)
			}
		}
	}
}

// A 10,000-machine phase over a handful of workers must complete with
// every task run exactly once — the pool's shared counter cannot skip or
// double-run a group.
func TestRunPhaseManyMachinesFewWorkers(t *testing.T) {
	const machines = 10_000
	cfg := testConfig(machines)
	cfg.HostWorkers = 4
	c := New(cfg)
	ran := make([]int, machines)
	err := c.RunPhaseF("wide", func(machine int, m *Meter) error {
		ran[machine]++
		m.ChargeBulk(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("machine %d ran %d times", i, n)
		}
	}
}

// The cluster chunk knob must not leak into the virtual clock: the same
// phase streaming the same source yields the same time at any
// Config.ChunkElems.
func TestRunPhaseChunkSizeIdentity(t *testing.T) {
	run := func(chunkElems int) float64 {
		cfg := testConfig(64)
		cfg.ChunkElems = chunkElems
		c := New(cfg)
		err := c.RunPhaseF("stream", func(machine int, m *Meter) error {
			src := seqSource(500+machine, c.ChunkElems())
			src.Each(func(v int) { m.ChargeBulk(float64(v % 7)) })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Now()
	}
	want := run(0)
	for _, chunk := range []int{1, 3, 100, 100000} {
		if got := run(chunk); got != want {
			t.Errorf("ChunkElems=%d: clock %v, want %v", chunk, got, want)
		}
	}
}

// Merge hooks observe machine order even when the run hooks execute on
// an arbitrary worker interleaving.
func TestRunPhaseMergeOrderUnderPool(t *testing.T) {
	const machines = 257
	cfg := testConfig(machines)
	cfg.HostWorkers = 8
	c := New(cfg)
	var order []int
	err := c.RunPhaseFM("merge-order",
		func(machine int, m *Meter) error { m.ChargeBulk(float64(machine % 11)); return nil },
		func(machine int, m *Meter) error { order = append(order, machine); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, machineID := range order {
		if machineID != i {
			t.Fatalf("merge order[%d] = %d; merges must run in machine order", i, machineID)
		}
	}
	if len(order) != machines {
		t.Fatalf("ran %d merges, want %d", len(order), machines)
	}
}

func BenchmarkSourceStream(b *testing.B) {
	for _, chunk := range []int{64, DefaultChunkElems} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			s := seqSource(100_000, chunk)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := 0
				s.Each(func(v int) { sum += v })
			}
		})
	}
}

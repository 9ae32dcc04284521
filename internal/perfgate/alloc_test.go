package perfgate

import (
	"testing"

	"mlbench/internal/randgen"
	"mlbench/internal/sim"
)

// Absolute allocs/op ceilings for the streamed-partition substrate.
// The baseline comparison in Compare only catches drift between two gate
// runs; these ceilings pin the substrate's allocation behaviour in
// absolute terms, so a change that reintroduces per-element or
// per-machine-quadratic allocation fails `go test` directly with no
// baseline file needed.

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

package perfgate

import (
	"fmt"
	"io"

	"mlbench/internal/datagen"
	"mlbench/internal/linalg"
	"mlbench/internal/models/hmm"
	"mlbench/internal/models/lda"
	"mlbench/internal/psengine"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/trace"
	"mlbench/internal/workload"
)

// Sink defeats dead-code elimination in the micro specs.
var Sink float64

// MicroSpecs benchmarks the host-side hot paths the simulation's
// wall time is made of: the Walker/Vose alias sampler that LDA/HMM
// resampling leans on, the Metropolis-Hastings token kernels behind the
// mhalias sampler tier, the Lasso Gram-matrix fold, the RunPhase barrier
// merge that every engine phase pays, the parameter-server shard
// aggregation fold, and the trace export.
func MicroSpecs() []Spec {
	return []Spec{
		aliasDrawSpec(),
		ldaMHDrawSpec(),
		hmmMHDrawSpec(),
		gramFoldSpec(),
		psShardFoldSpec(),
		runPhaseMergeSpec(),
		runPhaseWideSpec(),
		sourceStreamSpec(),
		traceExportSpec(),
		datagenCorpusSpec(),
	}
}

// MHDocLen is the document length shared by the MH micro specs and the
// speedup tests: one op resamples this many tokens.
const MHDocLen = 64

// ldaResampleSpec builds an LDA resampling benchmark for the given tier
// and topic count: one op = redrawing every z of one MHDocLen-word
// document. The topic axis is where the tiers separate — the dense scan
// pays O(T) per token, the cached MH kernel O(1).
func ldaResampleSpec(name string, tier randgen.SamplerTier, topics, n int) Spec {
	h := lda.Hyper{T: topics, V: 2000, Alpha: 0.1, Beta: 0.1}
	rng := randgen.New(17)
	model := lda.Init(rng, h)
	model.RefreshProposals(h)
	words := make([]int, MHDocLen)
	for i := range words {
		words[i] = rng.Intn(h.V)
	}
	doc := lda.InitDoc(rng, words, h)
	return Spec{
		Name:   name,
		N:      n,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				model.ResampleZTier(rng, doc, tier)
			}
			Sink += doc.Theta[0]
			return nil
		},
	}
}

// ldaMHDrawSpec: the mhalias LDA token kernel (cycled doc/word proposals
// against the cached alias tables).
func ldaMHDrawSpec() Spec {
	return ldaResampleSpec("micro:lda-mh-draw", randgen.TierMHAlias, 1000, 10_000)
}

// hmmResampleSpec builds a K=100 HMM resampling benchmark for the given
// tier: one op = one parity sweep over an MHDocLen-word chain.
func hmmResampleSpec(name string, tier randgen.SamplerTier, n int) Spec {
	h := hmm.Hyper{K: 100, V: 2000, Alpha: 0.1, Beta: 0.1}
	rng := randgen.New(19)
	model := hmm.Init(rng, h)
	model.RefreshProposals()
	words := make([]int, MHDocLen)
	for i := range words {
		words[i] = rng.Intn(h.V)
	}
	states := hmm.InitStates(rng, words, h.K)
	var sc hmm.Scratch
	return Spec{
		Name:   name,
		N:      n,
		Warmup: 1,
		Run: func(n int) error {
			var acc int
			for i := 0; i < n; i++ {
				model.ResampleStatesTier(rng, words, states, i, tier, &sc)
				acc += states[0]
			}
			Sink += float64(acc)
			return nil
		},
	}
}

// hmmMHDrawSpec: the mhalias HMM state kernel (emission + transition
// proposals against the cached alias tables).
func hmmMHDrawSpec() Spec {
	return hmmResampleSpec("micro:hmm-mh-draw", randgen.TierMHAlias, 10_000)
}

// aliasDrawSpec: one op = one O(1) categorical draw from a K=100 alias
// table (the LDA/HMM per-word topic draw).
func aliasDrawSpec() Spec {
	rng := randgen.New(7)
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}
	table := randgen.NewAlias(weights)
	return Spec{
		Name:   "micro:alias-draw-k100",
		N:      500_000,
		Warmup: 1,
		Run: func(n int) error {
			var acc int
			for i := 0; i < n; i++ {
				acc += table.Draw(rng)
			}
			Sink += float64(acc)
			return nil
		},
	}
}

// gramFoldSpec: one op = folding one observation into the Lasso
// initialization statistics (X^T X plus X^T y), p=64. Observations are
// folded a 32-point block at a time through AddGram, as the Lasso tasks
// fold a machine's points.
func gramFoldSpec() Spec {
	const p = 64
	rng := randgen.New(11)
	data := workload.GenRegression(rng, workload.SparseBeta(rng, p, 4), 32, workload.RegressionConfig{})
	xtx := linalg.NewMat(p, p)
	xty := linalg.NewVec(p)
	return Spec{
		Name:   "micro:gram-fold-p64",
		N:      20_000,
		Warmup: 1,
		Run: func(n int) error {
			for done := 0; done < n; done += len(data.X) {
				block := data.X[:min(len(data.X), n-done)]
				xtx.AddGram(block)
				for i, x := range block {
					for j := range x {
						xty[j] += x[j] * data.Y[i]
					}
				}
			}
			Sink += xty[0]
			return nil
		},
	}
}

// psShardFoldSpec: one op = folding one 4096-element worker delta into a
// server shard's accumulator — the inner loop of every parameter-server
// barrier merge (LDA topic-word counts, HMM transition/emission counts).
func psShardFoldSpec() Spec {
	const dim = 4096
	rng := randgen.New(13)
	dst := make([]float64, dim)
	delta := make([]float64, dim)
	for i := range delta {
		delta[i] = rng.Float64()
	}
	return Spec{
		Name:   "micro:ps-shard-fold",
		N:      50_000,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				psengine.FoldDense(dst, delta)
			}
			Sink += dst[0]
			return nil
		},
	}
}

// runPhaseMergeSpec: one op = one RunPhaseFM over a 16-machine cluster —
// the host-goroutine fan-out, per-task Meter flush, and deterministic
// barrier merge every simulated phase pays.
func runPhaseMergeSpec() Spec {
	cfg := sim.DefaultConfig(16)
	cfg.Scale = 1000
	cl := sim.New(cfg)
	return Spec{
		Name:   "micro:runphase-merge-16m",
		N:      300,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				err := cl.RunPhaseFM("gate",
					func(machine int, m *sim.Meter) error {
						m.ChargeSec(1)
						return nil
					},
					func(machine int, m *sim.Meter) error { return nil })
				if err != nil {
					return err
				}
			}
			Sink += cl.Now()
			return nil
		},
	}
}

// sourceStreamSpec: one op = streaming a 65,536-element partition
// through a pooled chunked cursor at the default chunk size — the
// streamed-partition substrate's hot loop. The pool must hold allocs/op
// to a handful of chunk-buffer reuses; regressions here multiply across
// every machine of a 10,000-machine sweep (the absolute ceilings in
// TestStreamSubstrateAllocCeilings pin it).
func sourceStreamSpec() Spec {
	const n = 65_536
	src := sim.NewSource(n, 0, func() func() float64 {
		rng := randgen.New(23)
		return func() float64 { return rng.Float64() }
	})
	return Spec{
		Name:   "micro:source-stream-64k",
		N:      200,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				sum := 0.0
				src.Each(func(v float64) { sum += v })
				Sink += sum
			}
			return nil
		},
	}
}

// runPhaseWideSpec: one op = one RunPhaseF over a 10,000-machine cluster
// on a bounded worker pool — the fan-out shape every fig-scale phase
// pays. Scratch reuse keeps the per-phase allocations flat;
// TestStreamSubstrateAllocCeilings catches a 10,000-machine sweep
// quietly going allocation-quadratic again.
func runPhaseWideSpec() Spec {
	cfg := sim.DefaultConfig(10_000)
	cfg.Scale = 1000
	cfg.HostWorkers = 4
	cl := sim.New(cfg)
	return Spec{
		Name:   "micro:runphase-wide-10km",
		N:      10,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				err := cl.RunPhaseF("gate", func(machine int, m *sim.Meter) error {
					m.ChargeBulk(1)
					return nil
				})
				if err != nil {
					return err
				}
			}
			Sink += cl.Now()
			return nil
		},
	}
}

// traceExportSpec: one op = serializing a ~600-record trace to both the
// Chrome trace-event JSON and CSV exporters.
func traceExportSpec() Spec {
	rec := trace.NewRecorder()
	for cell := 0; cell < 3; cell++ {
		rec.BeginCell(fmt.Sprintf("gate/cell%d", cell))
		for i := 0; i < 150; i++ {
			rec.AddSpan(fmt.Sprintf("phase%d", i%7), "phase", i%16, float64(i), 1.5, trace.A("tasks", 16))
			if i%3 == 0 {
				rec.AddEvent("mark", "task", i%16, float64(i), trace.A("n", float64(i)))
			}
			rec.Count(fmt.Sprintf("phase%d", i%7), "bytes", float64(i)*128)
		}
	}
	return Spec{
		Name:   "micro:trace-export",
		N:      30,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				if err := trace.WriteChrome(io.Discard, rec); err != nil {
					return err
				}
				if err := trace.WriteCSV(io.Discard, rec); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// datagenCorpusSpec: one op = materializing a small heavy-tailed corpus
// through the sharded dataset generator, canonical fingerprint included —
// the setup cost every datagen-backed run and the datagen-smoke CI job
// pay.
func datagenCorpusSpec() Spec {
	spec := datagen.DatasetSpec{
		Name: "gate-corpus", Seed: 29, Shards: 8,
		Corpus: &datagen.CorpusSpec{
			Docs: 64, Vocab: 2000, Topics: 8, ZipfS: 1.4, TopicSkew: 1,
			DocLen: datagen.DocLenSpec{Dist: "lognormal", Mean: 120, Sigma: 0.8},
		},
	}
	return Spec{
		Name:   "micro:datagen-corpus",
		N:      50,
		Warmup: 1,
		Run: func(n int) error {
			for i := 0; i < n; i++ {
				d, err := datagen.Generate(spec, 1)
				if err != nil {
					return err
				}
				Sink += float64(d.TokenCount())
			}
			return nil
		},
	}
}

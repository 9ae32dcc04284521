package ldatask

import (
	"fmt"

	"mlbench/internal/bsp"
	"mlbench/internal/dataflow"
	"mlbench/internal/gas"
	"mlbench/internal/models/lda"
	"mlbench/internal/models/sparse"
	"mlbench/internal/ordmap"
	"mlbench/internal/psengine"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// This file implements the STREAMED scale formulation of LDA used by the
// fig-scale sweep (100 -> 1,000 -> 10,000 machines). The paper's Figure 4
// formulations keep per-document chain state (z, theta) resident, which
// couples a machine's memory to its partition size. The scale formulation
// is amnesiac instead: every iteration re-draws each document's z and
// theta from scratch under the current phi (an init plus one Gibbs
// rejuvenation sweep), so no per-document state survives between
// iterations and the corpus streams chunk by chunk through a
// sim.Source — resident memory per machine is bounded by the chunk
// size, not the partition. Only phi and the topic-word counts (model-
// sized) live across a pass. The pass is dense-scan by construction; the
// sampler tier knob shapes the generated corpus, not this hot path.

// docSources streams the first machines' documents.
func docSources(cl *sim.Cluster, cfg Config, machines int) []*sim.Source[[]int] {
	open := machineDocs(cl, cfg)
	srcs := make([]*sim.Source[[]int], machines)
	for mc := range srcs {
		srcs[mc] = open(mc)
	}
	return srcs
}

// rejuvenate runs the amnesiac per-document pass: uniform z and prior
// theta, a z sweep under phi, a theta redraw, and a final z sweep. The
// returned ephemeral Doc carries the assignments to accumulate.
func rejuvenate(rng *randgen.RNG, h lda.Hyper, model *lda.Model, words []int) *lda.Doc {
	d := lda.InitDoc(rng, words, h)
	model.ResampleZ(rng, d)
	d.ResampleTheta(rng, h)
	model.ResampleZ(rng, d)
	return d
}

// chargeScaleDoc accounts one rejuvenation pass over a document: two
// dense z sweeps plus two Dirichlet draws.
func chargeScaleDoc(m *sim.Meter, cfg Config, words int) {
	m.ChargeTuples(words)
	m.ChargeBulk(2*float64(words)*lda.ZFlops(cfg.T) + 4*float64(cfg.T))
}

// scalePass streams one machine's documents through the rejuvenation
// sweep, accumulating a sparse topic-word partial on the machine's meter
// RNG. The partial tracks the tokens sampled, not T x V; the simulation
// still charges the dense payload (countsViewBytes), since at paper
// scale the counts are dense.
func scalePass(m *sim.Meter, cfg Config, h lda.Hyper, model *lda.Model, src *sim.Source[[]int]) *sparse.Counts {
	counts := sparse.New(cfg.V)
	src.Each(func(words []int) {
		chargeScaleDoc(m, cfg, len(words))
		rejuvenate(m.RNG(), h, model, words).Tally(counts, 1)
	})
	return counts
}

// scaleUpdate redraws phi from the gathered real counts on the driver.
func scaleUpdate(cl *sim.Cluster, cfg Config, h lda.Hyper, profile sim.Profile, rng *randgen.RNG, model *lda.Model, gathered *lda.WordCounts, phase string) error {
	return cl.RunDriver(phase, func(m *sim.Meter) error {
		m.SetProfile(profile)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		scaleWordCounts(gathered, cl.Scale())
		model.UpdatePhi(rng, h, gathered)
		return nil
	})
}

// scaleChain is the cross-engine convergence diagnostic: the per-word
// log-likelihood of machine 0's documents after one rejuvenation pass
// under a private RNG (deterministic, uncharged, and independent of the
// machines' sampling streams).
func scaleChain(cl *sim.Cluster, cfg Config, h lda.Hyper, model *lda.Model) float64 {
	rng := randgen.New(cfg.Seed ^ 0xd1a6)
	var ll float64
	words := 0
	machineDocs(cl, cfg)(0).Each(func(w []int) {
		d := rejuvenate(rng, h, model, w)
		ll += model.LogLikelihood(d)
		words += len(w)
	})
	if words == 0 {
		return 0
	}
	return ll / float64(words)
}

// recordScaleQuality stores the final scaleChain diagnostic.
func recordScaleQuality(cl *sim.Cluster, cfg Config, h lda.Hyper, model *lda.Model, res *task.Result) {
	if finalModel != nil {
		finalModel(model)
	}
	res.SetMetric("loglike", scaleChain(cl, cfg, h, model))
}

// scaleStreamBytes is the simulated resident stream window per machine:
// a double buffer of chunk-sized document batches at the default chunk
// size. It is deliberately independent of the host's -chunk knob so the
// virtual-memory accounting (and OOM behaviour) cannot depend on a
// host-side setting.
func scaleStreamBytes(cfg Config) int64 {
	return 2 * int64(sim.DefaultChunkElems) * int64(8*cfg.AvgDocLen)
}

// RunScaleSpark runs the streamed scale formulation on the dataflow
// engine: a document RDD generated lazily per partition, one aggregate
// per iteration folding sparse counts, and a driver-side phi redraw.
func RunScaleSpark(cl *sim.Cluster, cfg Config, profile sim.Profile) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	ctx := dataflow.NewContext(cl, profile)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	srcs := docSources(cl, cfg, machines)

	data := dataflow.Generate(ctx, machines, func(d []int) int64 { return int64(8*len(d)) + 16 },
		func(p int, r *randgen.RNG) [][]int {
			return srcs[p].Materialize()
		}).SetName("docs").Cache()

	rng := randgen.New(cfg.Seed ^ 0x5ca1e)
	var model *lda.Model
	err := cl.RunDriver("lda-scale-init", func(m *sim.Meter) error {
		m.SetProfile(profile)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		model = lda.Init(rng, h)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Broadcast(model.Bytes(), "lda model"); err != nil {
			return res, fmt.Errorf("lda scale spark: broadcast: %w", err)
		}
		counts, err := dataflow.Aggregate(data,
			func() *sparse.Counts { return sparse.New(cfg.V) },
			func(m *sim.Meter, acc *sparse.Counts, words []int) *sparse.Counts {
				chargeScaleDoc(m, cfg, len(words))
				rejuvenate(m.RNG(), h, model, words).Tally(acc, 1)
				return acc
			},
			func(m *sim.Meter, a, b *sparse.Counts) *sparse.Counts {
				m.ChargeLinalgAbs(1, float64(cfg.T*cfg.V), 1)
				a.Merge(b)
				return a
			},
		)
		if err != nil {
			return res, fmt.Errorf("lda scale spark iter %d: %w", iter, err)
		}
		gathered := lda.NewWordCounts(cfg.T, cfg.V)
		counts.AddTo(gathered.G)
		if err := scaleUpdate(cl, cfg, h, profile, rng, model, gathered, "lda-scale-update"); err != nil {
			return res, err
		}
		ctx.ReleaseBroadcast(model.Bytes())
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(scaleChain(cl, cfg, h, model))
	}
	recordScaleQuality(cl, cfg, h, model, res)
	return res, nil
}

// Scale Giraph vertex ids: topic vertices at [0, T), one streaming
// super-vertex per machine at T and up.

// scaleSVVtx streams one machine's corpus; nothing is resident.
type scaleSVVtx struct {
	src *sim.Source[[]int]
}

// scaleTopicVtx owns one topic's gathered counts.
type scaleTopicVtx struct{ t int }

// scaleCountMsg carries one topic's sparse word counts (a one-row
// partial).
type scaleCountMsg struct {
	wc *sparse.Counts
}

// RunScaleGiraph runs the streamed scale formulation on the BSP engine:
// the model rides the aggregator channel, each machine super-vertex
// streams its corpus and sends per-topic combined count messages, and
// the topic vertices gather them for the driver's phi redraw.
func RunScaleGiraph(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()

	g := bsp.NewGraph(cl)
	g.SetCombiner(func(a, b bsp.Msg) bsp.Msg {
		am := a.Data.(*scaleCountMsg)
		am.wc.Merge(b.Data.(*scaleCountMsg).wc)
		return bsp.Msg{Data: am, Bytes: a.Bytes}
	})

	srcs := docSources(cl, cfg, machines)
	for mc, src := range srcs {
		bytes := int64(float64(src.Len()*8*cfg.AvgDocLen) * cl.Scale())
		g.AddVertex(bsp.VertexID(int64(cfg.T)+int64(mc)), &scaleSVVtx{src: src}, bytes, false, mc)
	}
	for t := 0; t < cfg.T; t++ {
		g.AddVertex(bsp.VertexID(t), &scaleTopicVtx{t: t}, int64(8*cfg.V), false, t%machines)
	}
	if err := g.Load(); err != nil {
		return res, fmt.Errorf("lda scale giraph: load: %w", err)
	}

	rng := randgen.New(cfg.Seed ^ 0x5ca1e)
	var model *lda.Model
	err := cl.RunDriver("lda-scale-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileJava)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		model = lda.Init(rng, h)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	tBytes := int64(48 * cfg.V) // one topic's dense count view
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered := lda.NewWordCounts(cfg.T, cfg.V)
		// Superstep A: model distribution over the shared channel.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			if tv, ok := v.Data.(*scaleTopicVtx); ok && tv.t == 0 {
				ctx.SetShared("model", model, model.Bytes())
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lda scale giraph iter %d: model superstep: %w", iter, err)
		}
		// Superstep B: stream, rejuvenate, send per-topic combined counts.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			sv, ok := v.Data.(*scaleSVVtx)
			if !ok {
				return nil
			}
			m := ctx.Meter()
			byTopic := ordmap.New[int, *sparse.Counts]()
			sv.src.Each(func(words []int) {
				chargeScaleDoc(m, cfg, len(words))
				d := rejuvenate(m.RNG(), h, model, words)
				for i, w := range d.Words {
					wc, ok := byTopic.Ref(d.Z[i])
					if !ok {
						*wc = sparse.New(cfg.V)
					}
					(*wc).Add(0, w, 1)
				}
			})
			byTopic.Each(func(t int, wc *sparse.Counts) {
				ctx.Send(bsp.VertexID(t), &scaleCountMsg{wc: wc}, tBytes)
			})
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lda scale giraph iter %d: sample superstep: %w", iter, err)
		}
		// Superstep C: topic vertices gather their combined counts.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			tv, ok := v.Data.(*scaleTopicVtx)
			if !ok {
				return nil
			}
			for _, msg := range msgs {
				msg.Data.(*scaleCountMsg).wc.AddTo(gathered.G[tv.t : tv.t+1])
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("lda scale giraph iter %d: gather superstep: %w", iter, err)
		}
		if err := scaleUpdate(cl, cfg, h, sim.ProfileJava, rng, model, gathered, "lda-scale-update"); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(scaleChain(cl, cfg, h, model))
	}
	recordScaleQuality(cl, cfg, h, model, res)
	return res, nil
}

// RunScaleGraphLab runs the streamed scale formulation on the GAS
// engine: one streaming vertex per (effective) machine, a
// map_reduce_vertices pass gathering sparse counts, and a driver phi
// redraw. The engine's boot clamp applies as everywhere else — GraphLab
// cannot boot beyond its cluster ceiling, so the sweep's larger columns
// run clamped.
func RunScaleGraphLab(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	h := cfg.hyper()

	g := gas.NewGraph(cl, nil)
	machines := g.EffectiveMachines()
	srcs := docSources(cl, cfg, machines)
	for mc, src := range srcs {
		bytes := int64(float64(src.Len()*8*cfg.AvgDocLen) * cl.Scale())
		g.AddVertex(gas.VertexID(mc), &scaleSVVtx{src: src}, bytes, false, mc)
	}
	if err := g.Load(); err != nil {
		return res, fmt.Errorf("lda scale graphlab: load: %w", err)
	}

	rng := randgen.New(cfg.Seed ^ 0x5ca1e)
	var model *lda.Model
	err := cl.RunDriver("lda-scale-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		model = lda.Init(rng, h)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Model sync: every machine refreshes its phi view.
		err = g.TransformVertices(func(m *sim.Meter, v *gas.Vertex) {
			m.ChargeLinalgAbs(1, float64(cfg.T*cfg.V), 1)
		})
		if err != nil {
			return res, fmt.Errorf("lda scale graphlab iter %d: model sync: %w", iter, err)
		}
		out, err := g.MapReduceVertices(countsViewBytes(cfg.T, cfg.V),
			func(m *sim.Meter, v *gas.Vertex) any {
				return scalePass(m, cfg, h, model, v.Data.(*scaleSVVtx).src)
			},
			func(m *sim.Meter, a, b any) any {
				ac := a.(*sparse.Counts)
				ac.Merge(b.(*sparse.Counts))
				return ac
			})
		if err != nil {
			return res, fmt.Errorf("lda scale graphlab iter %d: map-reduce: %w", iter, err)
		}
		gathered := lda.NewWordCounts(cfg.T, cfg.V)
		out.(*sparse.Counts).AddTo(gathered.G)
		if err := scaleUpdate(cl, cfg, h, sim.ProfileCPP, rng, model, gathered, "lda-scale-update"); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(scaleChain(cl, cfg, h, model))
	}
	recordScaleQuality(cl, cfg, h, model, res)
	return res, nil
}

// scaleCountsVG is the SimSQL scale VG: one invocation per machine
// group, streaming the machine's corpus through the rejuvenation sweep
// in C++ and emitting its nonzero (topic, word, count) cells as tuples.
type scaleCountsVG struct {
	cfg   Config
	h     lda.Hyper
	model *lda.Model
	srcs  []*sim.Source[[]int]
}

func (v *scaleCountsVG) Name() string { return "sv_lda_scale_counts" }
func (v *scaleCountsVG) OutSchema() relational.Schema {
	return relational.Schema{
		{Name: "topic", Kind: relational.KindInt},
		{Name: "word", Kind: relational.KindInt},
		{Name: "val", Kind: relational.KindFloat},
	}
}
func (v *scaleCountsVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	counts := sparse.New(v.cfg.V)
	for _, row := range rows {
		src := v.srcs[row.Int(0)]
		m.ChargeOpsData(src.Len()*v.cfg.AvgDocLen, 2*lda.ZFlops(v.cfg.T), 1)
		src.Each(func(words []int) {
			rejuvenate(m.RNG(), v.h, v.model, words).Tally(counts, 1)
		})
	}
	out := make([]relational.Tuple, 0, counts.Len())
	counts.Each(func(t, w int, val float64) {
		out = append(out, relational.T(float64(t), float64(w), val))
	})
	return out
}

// RunScaleSimSQL runs the streamed scale formulation on the relational
// engine: a generator-backed machine-group table drives the scale VG,
// whose nonzero count cells are summed with GROUP BY; the driver
// redraws phi. No chain state is ever materialized as tuples — the
// per-iteration tables are count-sized, which is what lets the SimSQL
// row sweep to 10,000 machines.
func RunScaleSimSQL(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	eng := relational.NewEngine(cl)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	srcs := docSources(cl, cfg, machines)

	svT := relational.NewTable("docs_sv", relational.Ints("sv_id"), machines)
	for mc := 0; mc < machines; mc++ {
		svT.Parts[mc] = []relational.Tuple{relational.T(float64(mc))}
	}

	rng := randgen.New(cfg.Seed ^ 0x5ca1e)
	var model *lda.Model
	// Model init is one more MR job materializing the phi random table.
	cl.Advance(cl.Config().Cost.MRJobLaunch)
	err := cl.RunDriver("lda-scale-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		model = lda.Init(rng, h)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := eng.ReplicateModel(model.Bytes()); err != nil {
			return res, err
		}
		vg := &scaleCountsVG{cfg: cfg, h: h, model: model, srcs: srcs}
		countsT, err := eng.Run("scale_counts", relational.AsModelP(relational.GroupAggP(
			relational.VGApplyP(vg, 0, relational.ScanT(svT), true),
			[]int{0, 1},
			[]relational.AggSpec{{Kind: relational.AggSum, Col: 2, Name: "val"}})))
		if err != nil {
			return res, fmt.Errorf("lda scale simsql iter %d: %w", iter, err)
		}
		gathered := lda.NewWordCounts(cfg.T, cfg.V)
		for _, t := range countsT.Rows() {
			gathered.G[t.Int(0)][t.Int(1)] = t.Float(2)
		}
		cl.Advance(cl.Config().Cost.MRJobLaunch)
		if err := scaleUpdate(cl, cfg, h, sim.ProfileCPP, rng, model, gathered, "lda-scale-update"); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(scaleChain(cl, cfg, h, model))
	}
	recordScaleQuality(cl, cfg, h, model, res)
	return res, nil
}

// RunScalePS runs the streamed scale formulation on the parameter-server
// engine: workers stream their corpus against a (possibly stale) phi
// snapshot and push count deltas; the servers fold them and the driver
// redraws phi. The resident footprint per worker is the stream window
// plus the model cache — the formulation the 10,000-machine column of
// fig-scale exists to exercise.
func RunScalePS(cl *sim.Cluster, cfg Config, psCfg psengine.Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	eng := psengine.New(cl, psCfg)

	srcs := docSources(cl, cfg, machines)
	err := eng.Load("lda-scale-load", func(w int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		words := 0
		srcs[w].Each(func(ws []int) { words += len(ws) })
		m.ChargeTuples(words)
		// The stream window is resident state of fixed size — the machine
		// reads its partition through it — so it is charged unscaled
		// (AllocData would multiply by S, turning the window back into a
		// materialized partition).
		return m.AllocModel(scaleStreamBytes(cfg), "ps lda stream window")
	})
	if err != nil {
		return res, fmt.Errorf("lda scale ps: load: %w", err)
	}

	rng := randgen.New(cfg.Seed ^ 0x5ca1e)
	var model *lda.Model
	err = cl.RunDriver("lda-scale-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		model = lda.Init(rng, h)
		return nil
	})
	if err != nil {
		return res, err
	}
	if err := eng.AllocModel(model.Bytes()); err != nil {
		return res, fmt.Errorf("lda scale ps: model alloc: %w", err)
	}
	res.InitSec = sw.Lap()

	snaps := []*lda.Model{cloneLDAModel(model)}
	wire := float64(modelBytes(cfg.T, cfg.V))
	locals := make([]*sparse.Counts, machines)
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered := lda.NewWordCounts(cfg.T, cfg.V)
		err := eng.RunCycle(psengine.Cycle{
			Name:      "lda-scale-cycle",
			PullBytes: wire,
			PushBytes: float64(countsViewBytes(cfg.T, cfg.V)),
			Compute: func(w, version int, m *sim.Meter) error {
				locals[w] = scalePass(m, cfg, h, snaps[version], srcs[w])
				return nil
			},
			Fold: func(w int, m *sim.Meter) error {
				m.ChargeLinalgAbs(1, float64(cfg.T*cfg.V), 1)
				locals[w].AddTo(gathered.G)
				locals[w] = nil
				return nil
			},
			Apply: func(m *sim.Meter) error {
				m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
				scaleWordCounts(gathered, cl.Scale())
				model.UpdatePhi(rng, h, gathered)
				snaps = append(snaps, cloneLDAModel(model))
				return nil
			},
		})
		if err != nil {
			return res, fmt.Errorf("lda scale ps iter %d: %w", iter, err)
		}
		for v := 0; v < len(snaps)-(eng.Staleness()+1); v++ {
			snaps[v] = nil
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(scaleChain(cl, cfg, h, model))
	}
	recordScaleQuality(cl, cfg, h, model, res)
	return res, nil
}

package gmmtask

import (
	"fmt"

	"mlbench/internal/bsp"
	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// Giraph vertex ids reuse the layout of the GraphLab graph: clusters at
// [0, K), the cluster-membership (mixture) vertex at mixID, data at
// dataBase and up.

// bspDataVtx is a per-point Giraph vertex.
type bspDataVtx struct {
	x linalg.Vec
	c int
}

// bspSVVtx is a super-vertex block [lo, hi) of one machine's point
// stream, regenerated on each walk rather than held resident. A
// superstep computes a machine's vertices in insertion order, so each
// block resumes where the previous one parked the generator.
type bspSVVtx struct {
	src    *sim.Source[linalg.Vec]
	lo, hi int
}

// each streams the block's points through fn in stream order.
func (v *bspSVVtx) each(fn func(linalg.Vec)) { v.src.EachRange(v.lo, v.hi, fn) }

// bspClusVtx is one mixture component.
type bspClusVtx struct{ k int }

// bspMixVtx is the cluster-membership vertex that owns pi.
type bspMixVtx struct{}

// bspModelMsg carries one cluster's parameters.
type bspModelMsg struct {
	k  int
	mu linalg.Vec
}

// bspStatMsg carries the (n, sum, sq) contribution to one cluster, the
// payload the paper's combiner aggregates.
type bspStatMsg struct {
	n   float64
	sum linalg.Vec
	sq  *linalg.Mat
}

// RunGiraph implements the paper's Section 5.4 Giraph GMM: no explicit
// edges (a naming scheme addresses the cluster vertices), per-iteration
// supersteps of model distribution, membership sampling with combined
// statistics messages, and model update. In the per-point formulation the
// cluster vertices deliver the model triple to every data vertex
// individually — fine at 5 and 20 machines, fatal at 100 machines and at
// 100 dimensions (Figure 1(a)), because the in-flight fraction of the
// superstep's traffic grows with the cluster. The super-vertex
// formulation (Figure 1(c)) batches points and uses the aggregator-based
// shared channel for the model, so it runs everywhere (though Java's
// high-dimensional linear algebra keeps the 100-d variant very slow).
func RunGiraph(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()

	g := bsp.NewGraph(cl)
	combiner := func(a, b bsp.Msg) bsp.Msg {
		am, aok := a.Data.(*bspStatMsg)
		bm, bok := b.Data.(*bspStatMsg)
		if !aok || !bok {
			// Model messages to distinct data vertices never share a
			// destination, so only stat messages combine.
			return bsp.Msg{Data: []bsp.Msg{a, b}, Bytes: a.Bytes + b.Bytes}
		}
		am.n += bm.n
		bm.sum.AddTo(am.sum)
		am.sq.AddInPlace(bm.sq)
		return bsp.Msg{Data: am, Bytes: a.Bytes}
	}
	if !cfg.DisableCombiner {
		g.SetCombiner(combiner)
	}

	var dataIDs []bsp.VertexID
	srcs := machineSources(cl, cfg, machines)
	if cfg.SuperVertex {
		for mc, src := range srcs {
			n := src.Len()
			nsv := cfg.SVPerMachine
			if nsv > n {
				nsv = n
			}
			for s := 0; s < nsv; s++ {
				lo, hi := s*n/nsv, (s+1)*n/nsv
				id := bsp.VertexID(int64(dataBase) + int64(mc*cfg.SVPerMachine+s))
				bytes := int64(float64((hi-lo)*8*cfg.D) * cl.Scale())
				g.AddVertex(id, &bspSVVtx{src: src, lo: lo, hi: hi}, bytes, false, mc)
				dataIDs = append(dataIDs, id)
			}
		}
	} else {
		// Per-point vertices pin their point by design (the formulation
		// the paper shows failing); generation streams.
		next := int64(dataBase)
		for mc, src := range srcs {
			m := mc
			src.Each(func(x linalg.Vec) {
				g.AddVertex(bsp.VertexID(next), &bspDataVtx{x: x, c: -1}, int64(8*cfg.D)+16, true, m)
				dataIDs = append(dataIDs, bsp.VertexID(next))
				next++
			})
		}
	}
	for k := 0; k < cfg.K; k++ {
		g.AddVertex(bsp.VertexID(k), &bspClusVtx{k: k}, modelMsgBytes(cfg.D), false, k%machines)
	}
	g.AddVertex(bsp.VertexID(int64(mixID)), &bspMixVtx{}, int64(8*cfg.K), false, 0)

	if err := g.Load(); err != nil {
		return res, fmt.Errorf("gmm giraph: load: %w", err)
	}

	// Initialization: hyperparameters (aggregator pass), model init on
	// the master, and random initial memberships.
	mean, variance := momentsOfSources(srcs, cfg.D)
	h := gmm.HyperFromMoments(cfg.K, mean, variance)
	rng := randgen.New(cfg.Seed ^ 0x61a4)
	var params *gmm.Params
	err := cl.RunDriver("gmm-giraph-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileJava)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		params, e = gmm.Init(rng, h)
		return e
	})
	if err != nil {
		return res, err
	}
	// One superstep assigns initial memberships (and charges the per-point
	// pass the paper's 18-second init reflects).
	err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
		if d, ok := v.Data.(*bspDataVtx); ok {
			d.c = ctx.Meter().RNG().Intn(cfg.K)
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("gmm giraph: init step: %w", err)
	}
	res.InitSec = sw.Lap()

	statsBy := func() *gmm.Stats { return gmm.NewStats(cfg.K, cfg.D) }
	gathered := statsBy()

	mBytes := modelMsgBytes(cfg.D)
	sBytes := statBytes(cfg.D)

	diagSrc := srcs[0]
	for iter := 0; iter < cfg.Iterations; iter++ {
		gathered = statsBy()
		// Superstep A: model distribution. Per-point: each cluster vertex
		// sends its triple to every data vertex. Super-vertex: the model
		// rides the shared (aggregator) channel.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			switch d := v.Data.(type) {
			case *bspClusVtx:
				if cfg.SuperVertex {
					if d.k == 0 {
						ctx.SetShared("model", params, params.Bytes())
					}
				} else {
					// Every data vertex gets the same payload, which nothing
					// mutates: build it once per cluster vertex.
					msg := &bspModelMsg{k: d.k, mu: params.Mu[d.k]}
					for _, dst := range dataIDs {
						ctx.Send(dst, msg, mBytes)
					}
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("gmm giraph iter %d: model superstep: %w", iter, err)
		}
		// Superstep B: data vertices sample memberships and send combined
		// statistics to the cluster vertices; counts go to the
		// cluster-membership vertex via an aggregator.
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			m := ctx.Meter()
			samplePt := func(x linalg.Vec) int {
				// K Mallet density calls plus the scatter outer product.
				m.ChargeLinalg(cfg.K+1, (gmm.MembershipFlops(cfg.K, cfg.D)+float64(cfg.D*cfg.D))/float64(cfg.K+1), cfg.D)
				return params.SampleMembership(m.RNG(), x)
			}
			emit := func(k int, x linalg.Vec) {
				sq := linalg.NewMat(cfg.D, cfg.D)
				sq.AddOuter(1, x, x)
				ctx.Send(bsp.VertexID(k), &bspStatMsg{n: 1, sum: x.Clone(), sq: sq}, sBytes)
			}
			switch d := v.Data.(type) {
			case *bspDataVtx:
				d.c = samplePt(d.x)
				emit(d.c, d.x)
			case *bspSVVtx:
				// Batch: sample all points, pre-aggregate, send K messages.
				local := statsBy()
				d.each(func(x linalg.Vec) {
					local.Add(samplePt(x), x, 1)
				})
				for k := 0; k < cfg.K; k++ {
					if local.N[k] == 0 {
						continue
					}
					ctx.Send(bsp.VertexID(k), &bspStatMsg{n: local.N[k] * cl.Scale(), sum: local.Sum[k].Scale(cl.Scale()), sq: local.SumSq[k].Clone().ScaleInPlace(cl.Scale())}, sBytes)
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("gmm giraph iter %d: sample superstep: %w", iter, err)
		}
		// Superstep C: cluster vertices merge their combined statistics;
		// vertex state is updated on the master afterwards (the paper's
		// model draw is model-sized work).
		err = g.RunSuperstep(func(ctx *bsp.Context, v *bsp.Vertex, msgs []bsp.Msg) error {
			if cv, ok := v.Data.(*bspClusVtx); ok {
				for _, msg := range msgs {
					sm := msg.Data.(*bspStatMsg)
					gathered.N[cv.k] += sm.n
					sm.sum.AddTo(gathered.Sum[cv.k])
					gathered.SumSq[cv.k].AddInPlace(sm.sq)
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("gmm giraph iter %d: gather superstep: %w", iter, err)
		}
		if !cfg.SuperVertex {
			gathered.Scale(cl.Scale())
		}
		err = cl.RunDriver("gmm-giraph-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileJava)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			return gmm.UpdateParams(rng, h, params, gathered)
		})
		if err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(diagSrc, params))
	}
	recordQuality(cl, cfg, params, res)
	return res, nil
}

package imputetask

import (
	"fmt"

	"mlbench/internal/dataflow"
	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// stat mirrors the GMM task's per-cluster map output.
type stat struct {
	n   float64
	sum linalg.Vec
	sq  *linalg.Mat
}

// RunSpark implements the Figure 5 Spark imputation. Unlike the GMM, the
// data RDD cannot stay cached across iterations — the imputation step
// rewrites the censored coordinates — so every iteration materializes
// (and caches) a fresh data RDD while the previous one is still
// resident, and the statistics job reads the new copy. That lost
// cache() advantage is the paper's explanation for Spark's very
// significant running-time increase over its GMM.
func RunSpark(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	profile := sim.ProfilePython
	ctx := dataflow.NewContext(cl, profile)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()

	machinePts := make([][]*point, machines)
	for mc := 0; mc < machines; mc++ {
		machinePts[mc] = genMachinePoints(cl, cfg, mc)
	}
	ptBytes := int64(8*2*cfg.D) + 144 // values + mask + boxing
	sizer := func(*point) int64 { return ptBytes }

	parts := machines * cl.Config().Cores
	data := dataflow.Generate(ctx, parts, sizer, func(p int, r *randgen.RNG) []*point {
		mc := p % machines
		all := machinePts[mc]
		slot, cores := p/machines, cl.Config().Cores
		lo, hi := slot*len(all)/cores, (slot+1)*len(all)/cores
		return all[lo:hi]
	}).SetName("data").Cache()

	// Hyperparameters over the observed values (one aggregation job).
	type moments struct{ pts []*point }
	hAgg, err := dataflow.Aggregate(data,
		func() moments { return moments{} },
		func(m *sim.Meter, acc moments, p *point) moments {
			m.ChargeLinalg(1, float64(2*cfg.D), cfg.D)
			acc.pts = append(acc.pts, p)
			return acc
		},
		func(m *sim.Meter, a, b moments) moments {
			a.pts = append(a.pts, b.pts...)
			return a
		})
	if err != nil {
		return res, fmt.Errorf("impute spark: hyper: %w", err)
	}
	h := hyperFrom(hAgg.pts, cfg)

	rng := randgen.New(cfg.Seed ^ 0x17a1)
	var mod *model
	err = cl.RunDriver("impute-init", func(m *sim.Meter) error {
		m.SetProfile(profile)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		mod, e = newModel(rng, h)
		return e
	})
	if err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	sBytes := statBytes(cfg.D) + 32
	statSizer := func(dataflow.Pair[int, stat]) int64 { return sBytes }
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Broadcast(mod.params.Bytes(), "impute model"); err != nil {
			return res, err
		}
		// Job 1: the imputation pass rewrites the data — a fresh cached
		// RDD, with the old one resident until it materializes.
		next := dataflow.Map(data, sizer, func(m *sim.Meter, p *point) *point {
			m.ChargeLinalg(cfg.K+2, pointWorkFlops(cfg.K, cfg.D)/float64(cfg.K+2), cfg.D)
			mod.imputePoint(m.RNG(), p)
			return p
		}).SetName("data").Cache()
		if _, err := dataflow.Count(next); err != nil {
			return res, fmt.Errorf("impute spark iter %d: impute: %w", iter, err)
		}
		data.Unpersist()
		data = next
		// Job 2: statistics over the imputed data.
		mapped := dataflow.Map(data, statSizer, func(m *sim.Meter, p *point) dataflow.Pair[int, stat] {
			m.ChargeLinalg(1, float64(cfg.D*cfg.D), cfg.D)
			sq := linalg.NewMat(cfg.D, cfg.D)
			sq.AddOuter(1, p.x, p.x)
			return dataflow.Pair[int, stat]{K: p.c, V: stat{n: 1, sum: p.x.Clone(), sq: sq}}
		})
		agg := dataflow.ReduceByKey(mapped, func(m *sim.Meter, a, b stat) stat {
			m.ChargeLinalg(1, float64(cfg.D*cfg.D+cfg.D), cfg.D)
			a.n += b.n
			b.sum.AddTo(a.sum)
			a.sq.AddInPlace(b.sq)
			return a
		}).AsModel()
		pairs, err := dataflow.CollectPairs(agg)
		if err != nil {
			return res, fmt.Errorf("impute spark iter %d: stats: %w", iter, err)
		}
		cl.Advance(2 * cl.Config().Cost.SparkJobLaunch)
		err = cl.RunDriver("impute-update", func(m *sim.Meter) error {
			m.SetProfile(profile)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			stats := gmm.NewStats(cfg.K, cfg.D)
			for _, p := range pairs {
				stats.N[p.K] += p.V.n
				p.V.sum.AddTo(stats.Sum[p.K])
				stats.SumSq[p.K].AddInPlace(p.V.sq)
			}
			stats.Scale(cl.Scale())
			return mod.update(rng, h, stats)
		})
		if err != nil {
			return res, err
		}
		ctx.ReleaseBroadcast(mod.params.Bytes())
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	mod.noteFailures(res)
	recordQuality(machinePts[0], res)
	return res, nil
}

package gmmtask

import (
	"fmt"

	"mlbench/internal/dataflow"
	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// stat is the per-cluster map output of the paper's sample_mem step:
// (1, x, x x^T), aggregated by reduceByKey.
type stat struct {
	n   float64
	sum linalg.Vec
	sq  *linalg.Mat
}

// pointStat is one point's statistic (1, x, x x^T).
func pointStat(x linalg.Vec) stat {
	sq := linalg.NewMat(len(x), len(x))
	sq.AddOuter(1, x, x)
	return stat{n: 1, sum: x.Clone(), sq: sq}
}

func addStat(a, b stat) stat {
	a.n += b.n
	b.sum.AddTo(a.sum)
	a.sq.AddInPlace(b.sq)
	return a
}

// RunSpark implements the paper's Section 5.1 Spark GMM: a cached data
// RDD, empirical hyperparameters, and a per-iteration pipeline of
// map+reduceByKey (membership sampling and statistics aggregation),
// a model-update job and a counts job. profile selects Spark-Python or
// Spark-Java (Figure 1(b)). With cfg.SuperVertex, statistics are
// pre-aggregated per partition via mapPartitions (Figure 1(c)) — which,
// as the paper observes, barely helps since the interpreter still touches
// every point.
func RunSpark(cl *sim.Cluster, cfg Config, profile sim.Profile) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	ctx := dataflow.NewContext(cl, profile)
	sw := task.NewStopwatch(cl)

	machines := cl.NumMachines()
	parts := machines * cl.Config().Cores
	srcs := machineSources(cl, cfg, machines)
	// Partition p holds block p/machines of machine p%machines's stream
	// (partition p lives on machine p%machines — dataflow.machineFor),
	// split evenly over the machine's core-partitions. Generation is
	// lazy: nothing is resident until an action computes a partition.
	local := parts / machines
	ptBytes := pointBytes(profile, cfg.D)
	data := dataflow.Generate(ctx, parts, func(linalg.Vec) int64 { return ptBytes },
		func(p int, r *randgen.RNG) []linalg.Vec {
			src := srcs[p%machines]
			i := p / machines
			lo := i * src.Len() / local
			hi := (i + 1) * src.Len() / local
			return src.MaterializeRange(lo, hi)
		}).SetName("data").Cache()

	// Hyperparameters: count, mean, and diagonal variance of the data.
	type moments struct {
		n    float64
		sum  linalg.Vec
		sumq linalg.Vec
	}
	mom, err := dataflow.Aggregate(data,
		func() moments { return moments{sum: linalg.NewVec(cfg.D), sumq: linalg.NewVec(cfg.D)} },
		func(m *sim.Meter, acc moments, x linalg.Vec) moments {
			m.ChargeLinalg(2, float64(2*cfg.D), cfg.D)
			acc.n++
			for i, v := range x {
				acc.sum[i] += v
				acc.sumq[i] += v * v
			}
			return acc
		},
		func(m *sim.Meter, a, b moments) moments {
			a.n += b.n
			b.sum.AddTo(a.sum)
			b.sumq.AddTo(a.sumq)
			return a
		},
	)
	if err != nil {
		return res, fmt.Errorf("gmm spark: hyperparameters: %w", err)
	}
	mean := mom.sum.Scale(1 / mom.n)
	variance := make(linalg.Vec, cfg.D)
	for i := range variance {
		variance[i] = mom.sumq[i]/mom.n - mean[i]*mean[i]
	}
	h := gmm.HyperFromMoments(cfg.K, mean, variance)

	driverRNG := randgen.New(cfg.Seed ^ 0x5a11)
	var params *gmm.Params
	err = cl.RunDriver("gmm-init", func(m *sim.Meter) error {
		m.SetProfile(profile)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var err error
		params, err = gmm.Init(driverRNG, h)
		return err
	})
	if err != nil {
		return res, fmt.Errorf("gmm spark: init: %w", err)
	}
	res.InitSec = sw.Lap()

	sBytes := statBytes(cfg.D) + 32
	sizer := func(dataflow.Pair[int, stat]) int64 { return sBytes }
	sample := func(m *sim.Meter, x linalg.Vec) int {
		// One library call per mixture component (the density
		// evaluations), plus the outer product.
		m.ChargeLinalg(cfg.K, gmm.MembershipFlops(cfg.K, cfg.D)/float64(cfg.K), cfg.D)
		m.ChargeLinalg(1, float64(cfg.D*cfg.D), cfg.D)
		return params.SampleMembership(m.RNG(), x)
	}
	samplePoint := func(m *sim.Meter, x linalg.Vec) dataflow.Pair[int, stat] {
		return dataflow.Pair[int, stat]{K: sample(m, x), V: pointStat(x)}
	}
	combine := func(m *sim.Meter, a, b stat) stat {
		m.ChargeLinalg(1, float64(cfg.D*cfg.D+cfg.D), cfg.D)
		return addStat(a, b)
	}

	diagSrc := srcs[0]
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Task closures serialize the model to every executor.
		if err := ctx.Broadcast(params.Bytes(), "gmm model"); err != nil {
			return res, fmt.Errorf("gmm spark: broadcast: %w", err)
		}

		var mapped *dataflow.RDD[dataflow.Pair[int, stat]]
		if cfg.SuperVertex {
			// "Super vertex" Spark: pre-aggregate per partition in user
			// code; the interpreter still loops over every point.
			mapped = dataflow.MapPartitions(data, sizer, func(m *sim.Meter, part []linalg.Vec) []dataflow.Pair[int, stat] {
				local := make([]*stat, cfg.K)
				for _, x := range part {
					k := sample(m, x)
					if s := local[k]; s != nil {
						// addStat with x's own statistic, folded in place:
						// the same additions, as a running x x^T sum is
						// never -0 (adding 0 or -0 leaves it unchanged).
						s.n++
						x.AddTo(s.sum)
						s.sq.AddOuter(1, x, x)
					} else {
						s := pointStat(x)
						local[k] = &s
					}
				}
				var out []dataflow.Pair[int, stat]
				for k, s := range local {
					if s != nil {
						out = append(out, dataflow.Pair[int, stat]{K: k, V: *s})
					}
				}
				return out
			})
		} else {
			mapped = dataflow.Map(data, sizer, samplePoint)
		}
		agg := dataflow.ReduceByKey(mapped, combine).AsModel().SetName("c_agg")
		pairs, err := dataflow.CollectPairs(agg)
		if err != nil {
			return res, fmt.Errorf("gmm spark: aggregate: %w", err)
		}
		// Model update jobs (the paper's map-only job plus the counts
		// job) run over the tiny aggregated RDD; we fold them into one
		// driver-side update plus their job-launch overheads.
		cl.Advance(2 * cl.Config().Cost.SparkJobLaunch)
		err = cl.RunDriver("gmm-update", func(m *sim.Meter) error {
			m.SetProfile(profile)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			stats := gmm.NewStats(cfg.K, cfg.D)
			for _, p := range pairs {
				stats.N[p.K] += p.V.n
				p.V.sum.AddTo(stats.Sum[p.K])
				stats.SumSq[p.K].AddInPlace(p.V.sq)
			}
			stats.Scale(cl.Scale())
			return gmm.UpdateParams(driverRNG, h, params, stats)
		})
		if err != nil {
			return res, fmt.Errorf("gmm spark: update: %w", err)
		}
		ctx.ReleaseBroadcast(params.Bytes())
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(diagSrc, params))
	}
	recordQuality(cl, cfg, params, res)
	return res, nil
}

// chainPoint is the per-iteration quality statistic shared by all five
// GMM implementations: the model's average log-likelihood over machine
// 0's real data, streamed point by point. With matched data seeds every
// platform scores the same points, so the resulting chains are directly
// comparable (not charged). The running sum adds one point at a time —
// the same accumulation order as a single LogLikelihood call over the
// materialized slice, so the chain is byte-identical to the pre-streamed
// implementation.
func chainPoint(src *sim.Source[linalg.Vec], params *gmm.Params) float64 {
	var total float64
	one := make([]linalg.Vec, 1)
	src.Each(func(x linalg.Vec) {
		one[0] = x
		total += params.LogLikelihood(one)
	})
	return total / float64(src.Len())
}

// recordQuality stores the final model log-likelihood over machine 0's
// real data (a cross-platform comparable diagnostic; not charged).
func recordQuality(cl *sim.Cluster, cfg Config, params *gmm.Params, res *task.Result) {
	res.SetMetric("loglike", chainPoint(machineSource(cl, cfg, 0), params))
}

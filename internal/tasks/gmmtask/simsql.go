package gmmtask

import (
	"fmt"

	"mlbench/internal/linalg"
	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// memberVG is the paper's multinomial_membership VG function: invoked
// once per data point (the parameter group is the point's dimension
// tuples), it samples the point's cluster under the captured model.
type memberVG struct {
	d      int
	params *gmm.Params
}

func (v *memberVG) Name() string { return "multinomial_membership" }
func (v *memberVG) OutSchema() relational.Schema {
	return relational.Ints("data_id", "clus_id")
}
func (v *memberVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	x := make(linalg.Vec, v.d)
	for _, t := range rows {
		x[t.Int(1)] = t.Float(2)
	}
	m.ChargeOps(v.params.K, gmm.MembershipFlops(v.params.K, v.d)/float64(v.params.K), v.d)
	k := v.params.SampleMembership(m.RNG(), x)
	return []relational.Tuple{relational.T(rows[0].Float(0), float64(k))}
}

// svStatsVG is the super-vertex VG: one invocation per machine-sized
// group of points, sampling memberships and pre-aggregating the
// sufficient statistics in C++ before emitting them as tuples — the
// tactic that made SimSQL the fastest 100-dimensional GMM in Figure 1(c).
type svStatsVG struct {
	d, k   int
	params *gmm.Params
	srcs   []*sim.Source[linalg.Vec] // indexed by super-vertex id
}

func (v *svStatsVG) Name() string { return "sv_gmm_stats" }
func (v *svStatsVG) OutSchema() relational.Schema {
	return relational.Schema{
		{Name: "clus_id", Kind: relational.KindInt},
		{Name: "dim1", Kind: relational.KindInt},
		{Name: "dim2", Kind: relational.KindInt},
		{Name: "val", Kind: relational.KindFloat},
	}
}
func (v *svStatsVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	stats := gmm.NewStats(v.k, v.d)
	for _, row := range rows {
		src := v.srcs[row.Int(0)]
		m.ChargeOpsData(src.Len()*v.k, (gmm.MembershipFlops(v.k, v.d)+float64(v.d*v.d))/float64(v.k), v.d)
		src.Each(func(x linalg.Vec) {
			stats.Add(v.params.SampleMembership(m.RNG(), x), x, 1)
		})
	}
	// Emit the pre-aggregated statistics: counts at (d1=-1,d2=-1), sums
	// at (d1, -1), second moments at (d1, d2).
	out := relational.NewRowSlab(v.k*(1+v.d+v.d*v.d), len(v.OutSchema()))
	for k := 0; k < v.k; k++ {
		out.Add(float64(k), -1, -1, stats.N[k])
		for i := 0; i < v.d; i++ {
			out.Add(float64(k), float64(i), -1, stats.Sum[k][i])
			for j := 0; j < v.d; j++ {
				out.Add(float64(k), float64(i), float64(j), stats.SumSq[k].At(i, j))
			}
		}
	}
	return out.Rows()
}

// RunSimSQL implements the paper's Section 5.2 SimSQL GMM. The data
// relation is stored tuple-per-dimension; each iteration runs the
// membership VG over every point, then computes the sufficient
// statistics with joins and GROUP BY aggregation — the second-moment
// aggregation materializes one tuple per (point, dim1, dim2), which is
// the "costly GROUP BY" that made SimSQL twice as slow as Spark at 100
// dimensions. With cfg.SuperVertex the statistics are pre-aggregated in
// a C++ VG (one group per machine) instead.
func RunSimSQL(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	eng := relational.NewEngine(cl)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()

	// The data relation (data_id, dim_id, val) is generator-backed: one
	// partition per machine, streamed tuple-per-dimension from the
	// machine's point source whenever a scan walks it, never resident,
	// through one row reused for the whole walk.
	dataT := relational.NewTable("data", relational.Schema{
		{Name: "data_id", Kind: relational.KindInt},
		{Name: "dim_id", Kind: relational.KindInt},
		{Name: "val", Kind: relational.KindFloat},
	}, machines)
	dataT.Scaled = true
	srcs := machineSources(cl, cfg, machines)
	idBase := make([]int, machines)
	dataT.GenRows = make([]int, machines)
	nextID := 0
	for mc, src := range srcs {
		idBase[mc] = nextID
		nextID += src.Len()
		dataT.GenRows[mc] = src.Len() * cfg.D
	}
	dataT.Gen = func(part int, yield func(relational.Tuple)) {
		id := idBase[part]
		row := make(relational.Tuple, 3)
		srcs[part].Each(func(x linalg.Vec) {
			for d, v := range x {
				row[0], row[1], row[2] = float64(id), float64(d), v
				yield(row)
			}
			id++
		})
	}

	// Initialization: empirical hyperparameters via two aggregation
	// queries (mean and variance per dimension), then the initial model.
	meanT, err := eng.Run("mean_prior", relational.AsModelP(relational.GroupAggP(
		relational.ScanT(dataT), []int{1},
		[]relational.AggSpec{{Kind: relational.AggAvg, Col: 2, Name: "avg"}})))
	if err != nil {
		return res, fmt.Errorf("gmm simsql: mean: %w", err)
	}
	varT, err := eng.Run("var_prior", relational.AsModelP(relational.GroupAggP(
		relational.ProjectP(relational.ScanT(dataT),
			relational.Schema{{Name: "dim_id", Kind: relational.KindInt}, {Name: "sq", Kind: relational.KindFloat}},
			func(t, out relational.Tuple) {
				out[0], out[1] = t.Float(1), t.Float(2)*t.Float(2)
			}),
		[]int{0},
		[]relational.AggSpec{{Kind: relational.AggAvg, Col: 1, Name: "avg_sq"}})))
	if err != nil {
		return res, fmt.Errorf("gmm simsql: variance: %w", err)
	}
	mean := make(linalg.Vec, cfg.D)
	for _, t := range meanT.Rows() {
		mean[t.Int(0)] = t.Float(1)
	}
	variance := make(linalg.Vec, cfg.D)
	for _, t := range varT.Rows() {
		variance[t.Int(0)] = t.Float(1) - mean[t.Int(0)]*mean[t.Int(0)]
	}
	h := gmm.HyperFromMoments(cfg.K, mean, variance)

	rng := randgen.New(cfg.Seed ^ 0x591)
	var params *gmm.Params
	// The three model-initialization random tables are three more MR jobs.
	cl.Advance(3 * cl.Config().Cost.MRJobLaunch)
	err = cl.RunDriver("gmm-init-tables", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var err error
		params, err = gmm.Init(rng, h)
		return err
	})
	if err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	// Super-vertex parameter table: one row per machine-group.
	svT := relational.NewTable("data_sv", relational.Ints("sv_id"), machines)
	for mc := 0; mc < machines; mc++ {
		svT.Parts[mc] = []relational.Tuple{relational.T(float64(mc))}
	}

	diagSrc := srcs[0]
	for iter := 0; iter < cfg.Iterations; iter++ {
		// The model tables are replicated to every machine for VG
		// parameterization.
		if err := eng.ReplicateModel(params.Bytes()); err != nil {
			return res, err
		}
		stats := gmm.NewStats(cfg.K, cfg.D)
		if cfg.SuperVertex {
			vg := &svStatsVG{d: cfg.D, k: cfg.K, params: params, srcs: srcs}
			statsT, err := eng.Run("sv_stats", relational.AsModelP(relational.GroupAggP(
				relational.VGApplyP(vg, 0, relational.ScanT(svT), true),
				[]int{0, 1, 2},
				[]relational.AggSpec{{Kind: relational.AggSum, Col: 3, Name: "val"}})))
			if err != nil {
				return res, fmt.Errorf("gmm simsql sv iter %d: %w", iter, err)
			}
			fillStats(stats, statsT.Rows())
		} else {
			memT, err := eng.Run("membership", relational.VGApplyP(
				&memberVG{d: cfg.D, params: params}, 0, relational.ScanT(dataT), false))
			if err != nil {
				return res, fmt.Errorf("gmm simsql iter %d: membership: %w", iter, err)
			}
			// counts per cluster.
			cntT, err := eng.Run("counts", relational.AsModelP(relational.GroupAggP(
				relational.ScanT(memT), []int{1},
				[]relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
			if err != nil {
				return res, err
			}
			// first moments: join membership with data; the projection is
			// fused into the aggregate expression (SimSQL pipelines pure
			// scalar expressions into the aggregation job).
			joined := relational.HashJoinP(relational.ScanT(memT), relational.ScanT(dataT), []int{0}, []int{0})
			sumT, err := eng.Run("sums", relational.AsModelP(relational.GroupAggP(
				joined,
				[]int{1, 3},
				[]relational.AggSpec{{Kind: relational.AggSum, Name: "sum", Expr: func(t relational.Tuple) float64 {
					return t.Float(4)
				}}})))
			if err != nil {
				return res, err
			}
			// Second moments: the costly self-join producing one tuple
			// per (point, dim1, dim2), aggregated with GROUP BY.
			// Layout: mem(data_id, clus) + data(d_id, dim1, v1) + data(d_id, dim2, v2).
			pairsPlan := relational.HashJoinP(joined, relational.ScanT(dataT), []int{0}, []int{0})
			sqT, err := eng.Run("sumsq", relational.AsModelP(relational.GroupAggP(
				pairsPlan,
				[]int{1, 3, 6},
				[]relational.AggSpec{{Kind: relational.AggSum, Name: "val", Expr: func(t relational.Tuple) float64 {
					return t.Float(4) * t.Float(7)
				}}})))
			if err != nil {
				return res, err
			}
			for _, t := range cntT.Rows() {
				stats.N[t.Int(0)] = t.Float(1)
			}
			for _, t := range sumT.Rows() {
				stats.Sum[t.Int(0)][t.Int(1)] = t.Float(2)
			}
			for _, t := range sqT.Rows() {
				stats.SumSq[t.Int(0)].Set(int(t.Int(1)), int(t.Int(2)), t.Float(3))
			}
		}
		stats.Scale(cl.Scale())
		// The three recursive model tables (means, covariances,
		// probabilities) are three more MR jobs whose VG work is small.
		cl.Advance(3 * cl.Config().Cost.MRJobLaunch)
		err = cl.RunDriver("gmm-model-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			return gmm.UpdateParams(rng, h, params, stats)
		})
		if err != nil {
			return res, fmt.Errorf("gmm simsql iter %d: update: %w", iter, err)
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
		res.Record(chainPoint(diagSrc, params))
	}
	recordQuality(cl, cfg, params, res)
	return res, nil
}

// fillStats unpacks the super-vertex VG's tagged stat rows.
func fillStats(stats *gmm.Stats, rows []relational.Tuple) {
	for _, t := range rows {
		k := t.Int(0)
		d1, d2 := t.Int(1), t.Int(2)
		switch {
		case d1 < 0:
			stats.N[k] = t.Float(3)
		case d2 < 0:
			stats.Sum[k][d1] = t.Float(3)
		default:
			stats.SumSq[k].Set(int(d1), int(d2), t.Float(3))
		}
	}
}

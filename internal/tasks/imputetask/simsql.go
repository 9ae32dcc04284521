package imputetask

import (
	"fmt"

	"mlbench/internal/models/gmm"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// imputeVG redraws one point's censored coordinates and its membership,
// emitting the updated per-dimension rows.
type imputeVG struct {
	cfg    Config
	mod    *model
	points []*point // indexed by data_id
}

func (v *imputeVG) Name() string { return "gaussian_impute" }
func (v *imputeVG) OutSchema() relational.Schema {
	return relational.Schema{
		{Name: "data_id", Kind: relational.KindInt},
		{Name: "dim_id", Kind: relational.KindInt},
		{Name: "val", Kind: relational.KindFloat},
		{Name: "clus_id", Kind: relational.KindInt},
	}
}
func (v *imputeVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	id := rows[0].Int(0)
	p := v.points[id]
	m.ChargeOps(v.cfg.K+2, pointWorkFlops(v.cfg.K, v.cfg.D)/float64(v.cfg.K+2), v.cfg.D)
	v.mod.imputePoint(m.RNG(), p)
	out := make([]relational.Tuple, v.cfg.D)
	for d := 0; d < v.cfg.D; d++ {
		out[d] = relational.T(float64(id), float64(d), p.x[d], float64(p.c))
	}
	return out
}

// RunSimSQL implements the Figure 5 SimSQL imputation: the Section 5.2
// GMM pipeline plus one extra VG job per iteration that rewrites the
// data relation with imputed values. SimSQL streams the rewritten table
// through disk like everything else, so its times barely move relative
// to its GMM — and it is again the platform that scales to 100 machines
// with the least complaint.
func RunSimSQL(cl *sim.Cluster, cfg Config) (*task.Result, error) {
	cfg = cfg.withDefaults()
	res := &task.Result{}
	eng := relational.NewEngine(cl)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	cost := cl.Config().Cost

	// Data relation (data_id, dim_id, val) plus task-local points.
	dataT := relational.NewTable("data", relational.Schema{
		{Name: "data_id", Kind: relational.KindInt},
		{Name: "dim_id", Kind: relational.KindInt},
		{Name: "val", Kind: relational.KindFloat},
	}, machines)
	dataT.Scaled = true
	var allPoints []*point
	nextID := 0
	for mc := 0; mc < machines; mc++ {
		pts := genMachinePoints(cl, cfg, mc)
		allPoints = append(allPoints, pts...)
		for _, p := range pts {
			for d, val := range p.x {
				dataT.Parts[mc] = append(dataT.Parts[mc], relational.T(float64(nextID), float64(d), val))
			}
			nextID++
		}
	}
	machine0Count := 0
	if machines > 0 {
		machine0Count = dataT.PartLen(0) / cfg.D
	}

	h := hyperFrom(allPoints, cfg)
	rng := randgen.New(cfg.Seed ^ 0x17a2)
	var mod *model
	// Hyperparameter aggregation plus the three init random tables.
	cl.Advance(4 * cost.MRJobLaunch)
	if err := cl.RunPhaseF("impute-hyper", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		m.ChargeTuples(dataT.PartLen(machine))
		return nil
	}); err != nil {
		return res, err
	}
	if err := cl.RunDriver("impute-init", func(m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		m.ChargeLinalgAbs(cfg.K, gmm.UpdateFlops(1, cfg.D), cfg.D)
		var e error
		mod, e = newModel(rng, h)
		return e
	}); err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := eng.ReplicateModel(mod.params.Bytes()); err != nil {
			return res, err
		}
		// Extra step: the imputation VG rewrites the data relation.
		vg := &imputeVG{cfg: cfg, mod: mod, points: allPoints}
		newData, err := eng.Run("data", relational.VGApplyP(vg, 0, relational.ScanT(dataT), false))
		if err != nil {
			return res, fmt.Errorf("impute simsql iter %d: impute: %w", iter, err)
		}
		// GMM statistics: counts per cluster, first moments, and the
		// costly second-moment GROUP BY — all over the rewritten rows
		// (which carry clus_id in column 3).
		stats := gmm.NewStats(cfg.K, cfg.D)
		cntT, err := eng.Run("counts", relational.AsModelP(relational.GroupAggP(
			relational.SelectP(relational.ScanT(newData), func(t relational.Tuple) bool { return t.Int(1) == 0 }),
			[]int{3}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
		if err != nil {
			return res, err
		}
		for _, t := range cntT.Rows() {
			stats.N[t.Int(0)] = t.Float(1)
		}
		sumT, err := eng.Run("sums", relational.AsModelP(relational.GroupAggP(
			relational.ScanT(newData), []int{3, 1},
			[]relational.AggSpec{{Kind: relational.AggSum, Col: 2, Name: "s"}})))
		if err != nil {
			return res, err
		}
		for _, t := range sumT.Rows() {
			stats.Sum[t.Int(0)][t.Int(1)] = t.Float(2)
		}
		pairsPlan := relational.HashJoinP(relational.ScanT(newData), relational.ScanT(newData), []int{0}, []int{0})
		sqT, err := eng.Run("sumsq", relational.AsModelP(relational.GroupAggP(pairsPlan,
			[]int{3, 1, 5},
			[]relational.AggSpec{{Kind: relational.AggSum, Name: "v", Expr: func(t relational.Tuple) float64 {
				return t.Float(2) * t.Float(6)
			}}})))
		if err != nil {
			return res, err
		}
		for _, t := range sqT.Rows() {
			stats.SumSq[t.Int(0)].Set(int(t.Int(1)), int(t.Int(2)), t.Float(3))
		}
		stats.Scale(cl.Scale())
		cl.Advance(3 * cost.MRJobLaunch)
		if err := cl.RunDriver("impute-model-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(1, gmm.UpdateFlops(cfg.K, cfg.D), cfg.D)
			return mod.update(rng, h, stats)
		}); err != nil {
			return res, err
		}
		dataT = newData
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}
	mod.noteFailures(res)
	recordQuality(allPoints[:machine0Count], res)
	return res, nil
}

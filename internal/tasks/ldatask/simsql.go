package ldatask

import (
	"fmt"

	"mlbench/internal/models/lda"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// zSchema is the per-word assignment relation: (docID, pos, word, z).
func zSchema() relational.Schema {
	return relational.Ints("docID", "pos", "word", "z")
}

// docZVG resamples one document's z vector and theta in C++, emitting one
// tuple per word (plus the theta rows the word/doc formulations must
// materialize as a random table).
type docZVG struct {
	cfg   Config
	model *lda.Model
	h     lda.Hyper
	docs  map[int64]*lda.Doc
}

func (v *docZVG) Name() string { return "doc_z_resample" }
func (v *docZVG) OutSchema() relational.Schema {
	return zSchema()
}
func (v *docZVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	d := v.docs[rows[0].Int(0)]
	m.ChargeOps(len(d.Words), lda.ZFlopsTier(v.cfg.Sampler, v.cfg.T), 1)
	v.model.ResampleZTier(m.RNG(), d, v.cfg.Sampler)
	d.ResampleTheta(m.RNG(), v.h)
	out := make([]relational.Tuple, len(d.Words))
	docID := rows[0].Float(0)
	for pos, w := range d.Words {
		out[pos] = relational.T(docID, float64(pos), float64(w), float64(d.Z[pos]))
	}
	return out
}

// RunSimSQL implements the paper's Section 8 SimSQL LDA. The word-based
// formulation — which only SimSQL could run at all — materializes the z
// relation per word AND the theta relation per (document, topic) every
// iteration, giving the 16.5-hour iterations of Figure 4(a). The
// document-based variant moves the sampling into a per-document VG but
// still outputs per-word tuples. The super-vertex variant pre-aggregates
// g(t, w) inside the VG (the tactic that made SimSQL's GMM fastest), and
// is the only 100-machine LDA in the study.
func RunSimSQL(cl *sim.Cluster, cfg Config, variant Variant) (*task.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variant = variant
	res := &task.Result{}
	eng := relational.NewEngine(cl)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	cost := cl.Config().Cost

	rng := randgen.New(cfg.Seed ^ 0x1da2)
	model := lda.Init(rng, h)
	refreshProposals(cfg, nil, model)

	// Task-local document state plus the per-word z relation.
	docsByID := map[int64]*lda.Doc{}
	machineDocCount := make([]int, machines)
	zT := relational.NewTable("z", zSchema(), machines)
	zT.Scaled = true
	docID := int64(0)
	for mc := 0; mc < machines; mc++ {
		docs := genMachineDocs(cl, cfg, mc)
		machineDocCount[mc] = len(docs)
		for _, words := range docs {
			d := lda.InitDoc(rng, words, h)
			docsByID[docID] = d
			for pos, w := range words {
				zT.Parts[mc] = append(zT.Parts[mc], relational.T(float64(docID), float64(pos), float64(w), float64(d.Z[pos])))
			}
			docID++
		}
	}
	// Initialization: materialize the z (and, for the word variant, the
	// theta) random tables through the engine — the word-based init took
	// over 11 hours in the paper.
	cl.Advance(2 * cost.MRJobLaunch)
	if err := cl.RunPhaseF("lda-load", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		passes := 2
		if variant == VariantWord {
			passes = 4
		}
		m.ChargeTuples(passes * zT.PartLen(machine))
		if variant != VariantSV {
			// theta[0]: T rows per document.
			m.ChargeTuples(passes / 2 * machineDocCount[machine] * cfg.T)
		}
		return nil
	}); err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := eng.ReplicateModel(modelBytes(cfg.T, cfg.V)); err != nil {
			return res, err
		}
		counts := lda.NewWordCounts(cfg.T, cfg.V)
		switch variant {
		case VariantWord, VariantDoc:
			if variant == VariantWord {
				// The word-based plan joins z with the theta relation
				// (docID, topic, value — T rows per document) and with
				// the phi relation (topic, word, value) before
				// parameterizing the per-word Categorical VG. Both joins
				// stream the full word relation plus the fat theta table.
				cl.Advance(2 * cost.MRJobLaunch)
				if err := cl.RunPhaseF("lda-theta-phi-joins", func(machine int, m *sim.Meter) error {
					m.SetProfile(sim.ProfileSQLEngine)
					zRows := zT.PartLen(machine)
					thetaRows := machineDocCount[machine] * cfg.T
					// theta join: read + ship + probe + output; phi join:
					// read + probe + output.
					m.ChargeTuples(4*zRows + 3*thetaRows)
					m.ChargeTuples(3 * zRows)
					m.ChargeTuplesAbs(float64(cfg.T * cfg.V)) // phi replication
					return nil
				}); err != nil {
					return res, err
				}
			}
			vg := &docZVG{cfg: cfg, model: model, h: h, docs: docsByID}
			newZ, err := eng.Run("z", relational.VGApplyP(vg, 0, relational.ScanT(zT), false))
			if err != nil {
				return res, fmt.Errorf("lda simsql %s iter %d: %w", variant, iter, err)
			}
			zT = newZ
			// theta[i]: a GROUP BY over z per (doc, topic) plus a
			// Dirichlet VG emitting T rows per document.
			if _, err := eng.Run("ftab", relational.GroupAggP(relational.ScanT(zT),
				[]int{0, 3}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})); err != nil {
				return res, err
			}
			cl.Advance(cost.MRJobLaunch)
			if err := cl.RunPhaseF("lda-theta-update", func(machine int, m *sim.Meter) error {
				m.SetProfile(sim.ProfileSQLEngine)
				// Dirichlet VG output plus the versioning sort passes.
				m.ChargeTuples(3 * machineDocCount[machine] * cfg.T)
				return nil
			}); err != nil {
				return res, err
			}
			// phi counts: GROUP BY over the per-word z rows.
			gT, err := eng.Run("g", relational.AsModelP(relational.GroupAggP(relational.ScanT(zT),
				[]int{3, 2}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
			if err != nil {
				return res, err
			}
			for _, r := range gT.Rows() {
				counts.G[r.Int(0)][r.Int(1)] += r.Float(2)
			}
		default: // VariantSV: one VG invocation per machine, but the z
			// values are still emitted as per-word tuples and aggregated
			// with GROUP BY — the paper's SV SimSQL LDA keeps per-word
			// output (pre-aggregating would have required "encoding all
			// of the output values plus all of the aggregates as a
			// single output table").
			cl.Advance(cost.MRJobLaunch)
			zOut := relational.NewTable("z", zSchema(), machines)
			zOut.Scaled = true
			err := cl.RunPhaseF("lda-sv-vg", func(machine int, m *sim.Meter) error {
				m.SetProfile(sim.ProfileCPP)
				base := int64(0)
				for mc := 0; mc < machine; mc++ {
					base += int64(machineDocCount[mc])
				}
				var rows []relational.Tuple
				for i := 0; i < machineDocCount[machine]; i++ {
					d := docsByID[base+int64(i)]
					m.ChargeBulk(float64(len(d.Words)) * lda.ZFlopsTier(cfg.Sampler, cfg.T))
					model.ResampleZTier(m.RNG(), d, cfg.Sampler)
					d.ResampleTheta(m.RNG(), h)
					id := float64(base + int64(i))
					for pos, w := range d.Words {
						rows = append(rows, relational.T(id, float64(pos), float64(w), float64(d.Z[pos])))
					}
				}
				// Per-word output plus the random-table versioning sort.
				m.SetProfile(sim.ProfileSQLEngine)
				m.ChargeTuples(3 * len(rows))
				zOut.Parts[machine] = rows
				return nil
			})
			if err != nil {
				return res, fmt.Errorf("lda simsql sv iter %d: %w", iter, err)
			}
			gT, err := eng.Run("g", relational.AsModelP(relational.GroupAggP(relational.ScanT(zOut),
				[]int{3, 2}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
			if err != nil {
				return res, err
			}
			for _, r := range gT.Rows() {
				counts.G[r.Int(0)][r.Int(1)] += r.Float(2)
			}
		}
		scaleWordCounts(counts, cl.Scale())
		// phi[i]: one more random-table job.
		cl.Advance(cost.MRJobLaunch)
		if err := cl.RunDriver("lda-phi-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
			model.UpdatePhi(rng, h, counts)
			refreshProposals(cfg, m, model)
			return nil
		}); err != nil {
			return res, err
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	var docs0 []*lda.Doc
	for i := 0; i < machineDocCount[0]; i++ {
		docs0 = append(docs0, docsByID[int64(i)])
	}
	recordQuality(cfg, model, docs0, res)
	return res, nil
}

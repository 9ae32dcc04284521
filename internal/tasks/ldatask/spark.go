package ldatask

import (
	"fmt"

	"mlbench/internal/dataflow"
	"mlbench/internal/models/lda"
	"mlbench/internal/models/sparse"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// sparkLDADoc is one document in the RDD: words, topic assignments z and
// the document's theta.
type sparkLDADoc struct {
	id  int
	doc *lda.Doc
}

// ldaDocBytes is the in-memory size of a document record under the given
// runtime: boxed word and z lists plus the theta vector.
func ldaDocBytes(p sim.Profile, words, topics int) int64 {
	perInt := int64(8)
	switch p.Name {
	case "python":
		perInt = 28
	case "java":
		perInt = 16
	}
	return int64(2*words)*perInt + int64(8*topics) + 120
}

// RunSpark implements the document-based and super-vertex Spark LDA of
// Figures 4 and 6. profile selects Python or Java. Each iteration caches
// a new state RDD (z and theta evolve), aggregates the g(t, w) counts
// with a reduceByKey whose per-partition partials are boxed dictionaries,
// and redraws phi on the driver. The single-reducer aggregation of
// #partitions boxed count dictionaries plus two resident copies of the
// cached state RDD is what pushes Spark over the edge at 100 machines
// (for Java, already flaky at 20 — the paper saw it die after 18
// iterations).
func RunSpark(cl *sim.Cluster, cfg Config, variant Variant, profile sim.Profile) (*task.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variant = variant
	res := &task.Result{}
	if variant == VariantWord {
		return res, fmt.Errorf("ldatask: the paper did not obtain a word-based Spark LDA (the HMM self-join failure made it moot)")
	}
	ctx := dataflow.NewContext(cl, profile)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()

	machineDocs := make([][]*lda.Doc, machines)
	rngInit := randgen.New(cfg.Seed ^ 0x1da0)
	for mc := 0; mc < machines; mc++ {
		for _, words := range genMachineDocs(cl, cfg, mc) {
			machineDocs[mc] = append(machineDocs[mc], lda.InitDoc(rngInit, words, h))
		}
	}
	sizer := func(d sparkLDADoc) int64 { return ldaDocBytes(profile, len(d.doc.Words), cfg.T) }

	parts := machines * cl.Config().Cores
	base := dataflow.Generate(ctx, parts, sizer, func(p int, r *randgen.RNG) []sparkLDADoc {
		mc := p % machines
		all := machineDocs[mc]
		slot, cores := p/machines, cl.Config().Cores
		lo, hi := slot*len(all)/cores, (slot+1)*len(all)/cores
		out := make([]sparkLDADoc, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, sparkLDADoc{id: mc*len(all) + i, doc: all[i]})
		}
		return out
	}).SetName("docs")
	state := dataflow.Map(base, sizer, func(m *sim.Meter, d sparkLDADoc) sparkLDADoc {
		m.ChargeTuples(len(d.doc.Words))
		return d
	}).SetName("state").Cache()

	rng := randgen.New(cfg.Seed ^ 0x1da1)
	var model *lda.Model
	err := cl.RunDriver("lda-init-model", func(m *sim.Meter) error {
		m.SetProfile(profile)
		m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
		model = lda.Init(rng, h)
		refreshProposals(cfg, m, model)
		return nil
	})
	if err != nil {
		return res, err
	}
	if _, err := dataflow.Count(state); err != nil {
		return res, fmt.Errorf("lda spark: init: %w", err)
	}
	res.InitSec = sw.Lap()

	avgTokens := cfg.DocsPerMachine / parts * cfg.AvgDocLen * machines
	countSizer := func(dataflow.Pair[int, *sparse.Counts]) int64 {
		return boxedCountBytes(profile, cfg.T, cfg.V, avgTokens)
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Broadcast(modelBytes(cfg.T, cfg.V), "phi"); err != nil {
			return res, err
		}
		// Resample z and theta for every document into a fresh cached RDD
		// (the old one stays resident until the new one materializes).
		next := dataflow.Map(state, sizer, func(m *sim.Meter, d sparkLDADoc) sparkLDADoc {
			// The interpreter touches every word whether or not documents
			// are blocked — the reason the paper's super-vertex Spark
			// codes barely improve on the document-based ones. Python
			// additionally pays a PyGSL sampling call per word; Java
			// samples inline at bulk flop rates (Figure 6's advantage).
			m.ChargeTuples(len(d.doc.Words))
			if profile.Name == "python" {
				m.ChargeLinalg(len(d.doc.Words), lda.ZFlopsTier(cfg.Sampler, cfg.T), 1)
			} else {
				m.ChargeBulk(float64(len(d.doc.Words)) * lda.ZFlopsTier(cfg.Sampler, cfg.T))
			}
			model.ResampleZTier(m.RNG(), d.doc, cfg.Sampler)
			d.doc.ResampleTheta(m.RNG(), h)
			return d
		}).SetName("state").Cache()
		if _, err := dataflow.Count(next); err != nil {
			return res, fmt.Errorf("lda spark iter %d: resample: %w", iter, err)
		}
		state.Unpersist()
		state = next
		// Aggregate g(t, w): per-partition boxed dictionaries shuffled to
		// a single reducer, then collected to the driver.
		counts := dataflow.MapPartitions(state, countSizer,
			func(m *sim.Meter, part []sparkLDADoc) []dataflow.Pair[int, *sparse.Counts] {
				acc := sparse.New(cfg.V)
				for _, d := range part {
					if variant == VariantSV {
						m.ChargeBulk(float64(len(d.doc.Words)))
					} else {
						m.ChargeTuples(len(d.doc.Words))
					}
					d.doc.Tally(acc, 1)
				}
				return []dataflow.Pair[int, *sparse.Counts]{{K: 0, V: acc}}
			})
		merged := dataflow.ReduceByKey(counts, func(m *sim.Meter, a, b *sparse.Counts) *sparse.Counts {
			m.ChargeLinalgAbs(1, float64(cfg.T*cfg.V), 1)
			a.Merge(b)
			return a
		}).AsModel()
		pairs, err := dataflow.CollectPairs(merged)
		if err != nil {
			return res, fmt.Errorf("lda spark iter %d: counts: %w", iter, err)
		}
		err = cl.RunDriver("lda-phi-update", func(m *sim.Meter) error {
			m.SetProfile(profile)
			m.ChargeLinalgAbs(cfg.T, float64(cfg.V), 1)
			total := lda.NewWordCounts(cfg.T, cfg.V)
			for _, p := range pairs {
				p.V.AddTo(total.G)
			}
			scaleWordCounts(total, cl.Scale())
			model.UpdatePhi(rng, h, total)
			refreshProposals(cfg, m, model)
			return nil
		})
		if err != nil {
			return res, err
		}
		ctx.ReleaseBroadcast(modelBytes(cfg.T, cfg.V))
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	recordQuality(cfg, model, machineDocs[0], res)
	return res, nil
}

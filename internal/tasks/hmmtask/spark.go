package hmmtask

import (
	"fmt"

	"mlbench/internal/dataflow"
	"mlbench/internal/models/hmm"
	"mlbench/internal/randgen"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// sparkDoc is one document in the d_w_s_seq RDD: words plus current
// state assignments and the record-owned resampling scratch.
type sparkDoc struct {
	id     int
	words  []int
	states []int
	sc     hmm.Scratch
}

// docBytes is the simulated Python size of a document record: two Python
// lists of boxed ints plus tuple overhead.
func docBytes(words int) int64 { return int64(2*28*words) + 120 }

// RunSpark implements the paper's Section 7.1 Spark HMM.
//
// VariantWord reproduces the paper's failed attempt: the word-based
// simulation needs a self-join of the state-assignment RDD with itself
// (to pair each position with its neighbors), and "we could not get
// Spark to perform the required self-join ... without failing"; the
// reducer-side buffering of two word-cardinality inputs exhausts
// executor memory, so the function returns the OOM without implementing
// the rest.
//
// VariantDoc and VariantSV run the paper's document-based pipeline:
// per-iteration jobs aggregate the h/g/f statistics with reduceByKey,
// the driver redraws delta and Psi, and a mapValues job resamples the
// states of every document (word-at-a-time in Python — which is why
// Spark's HMM stays near four hours per iteration even as a super-vertex
// code).
func RunSpark(cl *sim.Cluster, cfg Config, variant Variant) (*task.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variant = variant
	res := &task.Result{}
	profile := sim.ProfilePython
	ctx := dataflow.NewContext(cl, profile)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()

	machineDocs := make([][][]int, machines)
	for mc := 0; mc < machines; mc++ {
		machineDocs[mc] = genMachineDocs(cl, cfg, mc)
	}

	if variant == VariantWord {
		return res, sparkWordBasedAttempt(ctx, cl, cfg, machineDocs)
	}

	// d_w_seq: parse documents and initialize states.
	parts := machines * cl.Config().Cores
	// finalStates[mc][i] aliases the live state slice of machine mc's
	// i-th document, so the quality diagnostic reads the chain's final
	// assignments without a charged driver collect.
	finalStates := make([][][]int, machines)
	for mc := range finalStates {
		finalStates[mc] = make([][]int, len(machineDocs[mc]))
	}
	docsRDD := dataflow.Generate(ctx, parts, func(d sparkDoc) int64 { return docBytes(len(d.words)) },
		func(p int, r *randgen.RNG) []sparkDoc {
			mc := p % machines
			all := machineDocs[mc]
			slot, cores := p/machines, cl.Config().Cores
			lo, hi := slot*len(all)/cores, (slot+1)*len(all)/cores
			out := make([]sparkDoc, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, sparkDoc{id: mc*len(all) + i, words: all[i]})
			}
			return out
		}).SetName("d_w_seq")
	state := dataflow.Map(docsRDD, func(d sparkDoc) int64 { return docBytes(len(d.words)) },
		func(m *sim.Meter, d sparkDoc) sparkDoc {
			m.ChargeTuples(len(d.words)) // init_state touches every word
			d.states = hmm.InitStates(m.RNG(), d.words, cfg.K)
			if mc, i := docHome(machineDocs, d.id); mc == 0 {
				finalStates[0][i] = d.states
			}
			return d
		}).SetName("d_w_s_seq").Cache()

	rng := randgen.New(cfg.Seed ^ 0x4a4a)
	var model *hmm.Model
	err := cl.RunDriver("hmm-init-model", func(m *sim.Meter) error {
		m.SetProfile(profile)
		m.ChargeLinalgAbs(cfg.K, float64(cfg.V), 1)
		model = hmm.Init(rng, h)
		refreshProposals(cfg, m, model)
		return nil
	})
	if err != nil {
		return res, err
	}
	// Materialize the cached initial state RDD.
	if _, err := dataflow.Count(state); err != nil {
		return res, fmt.Errorf("hmm spark: init states: %w", err)
	}
	res.InitSec = sw.Lap()

	// Count partials cross the framework as boxed Python dictionaries,
	// not packed arrays — the single-reducer aggregation of #partitions
	// of these is what sinks the 100-machine run.
	boxedCounts := int64(cfg.K*cfg.V+cfg.K*cfg.K+cfg.K) * 112
	countsSizer := func(dataflow.Pair[int, *hmm.Partial]) int64 {
		return boxedCounts
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Broadcast(modelBytes(cfg.K, cfg.V), "hmm model"); err != nil {
			return res, err
		}
		// Jobs 1+2 (h for delta) and 3+4 (f for Psi): the paper issues
		// separate count jobs; we aggregate all statistics in one
		// partition-merged pass and charge the extra job launches.
		counts := dataflow.MapPartitions(state, countsSizer,
			func(m *sim.Meter, part []sparkDoc) []dataflow.Pair[int, *hmm.Partial] {
				acc := hmm.NewPartial(cfg.K, cfg.V)
				for _, d := range part {
					if cfg.Variant == VariantSV {
						// Super-vertex counting is batched NumPy work.
						m.ChargeBulk(float64(2 * len(d.words)))
					} else {
						// comp_h / psi counting touches every word in Python.
						m.ChargeTuples(len(d.words))
					}
					acc.Accumulate(d.words, d.states, 1)
				}
				return []dataflow.Pair[int, *hmm.Partial]{{K: 0, V: acc}}
			})
		merged := dataflow.ReduceByKey(counts, func(m *sim.Meter, a, b *hmm.Partial) *hmm.Partial {
			m.ChargeLinalgAbs(1, float64(cfg.K*cfg.V), 1)
			a.Merge(b)
			return a
		}).AsModel()
		pairs, err := dataflow.CollectPairs(merged)
		if err != nil {
			return res, fmt.Errorf("hmm spark iter %d: counts: %w", iter, err)
		}
		cl.Advance(3 * cl.Config().Cost.SparkJobLaunch) // the separate h/f/g jobs
		err = cl.RunDriver("hmm-model-update", func(m *sim.Meter) error {
			m.SetProfile(profile)
			m.ChargeLinalgAbs(cfg.K, float64(cfg.V+cfg.K), 1)
			total := hmm.NewCounts(cfg.K, cfg.V)
			for _, p := range pairs {
				total.Fold(p.V)
			}
			scaleCounts(total, cl.Scale())
			model.UpdateModel(rng, h, total)
			refreshProposals(cfg, m, model)
			return nil
		})
		if err != nil {
			return res, err
		}
		// Job 5: update_state — resample the (iteration-parity) states of
		// every document, word-at-a-time in Python.
		iterCopy := iter
		next := dataflow.Map(state, func(d sparkDoc) int64 { return docBytes(len(d.words)) },
			func(m *sim.Meter, d sparkDoc) sparkDoc {
				m.ChargeTuples(len(d.words))
				m.ChargeLinalg(len(d.words)/2, hmm.StateFlopsTier(cfg.Sampler, cfg.K), 1)
				ns := append([]int{}, d.states...)
				model.ResampleStatesTier(m.RNG(), d.words, ns, iterCopy, cfg.Sampler, &d.sc)
				if mc, i := docHome(machineDocs, d.id); mc == 0 {
					finalStates[0][i] = ns
				}
				return sparkDoc{id: d.id, words: d.words, states: ns, sc: d.sc}
			}).SetName("d_w_s_seq").Cache()
		if _, err := dataflow.Count(next); err != nil {
			return res, fmt.Errorf("hmm spark iter %d: update states: %w", iter, err)
		}
		state.Unpersist()
		state = next
		ctx.ReleaseBroadcast(modelBytes(cfg.K, cfg.V))
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	recordQuality(cl, cfg, model, finalStates[0], machineDocs[0], res)
	return res, nil
}

// scaleCounts multiplies counts to paper scale.
func scaleCounts(c *hmm.Counts, scale float64) {
	c.Start.ScaleInPlace(scale)
	for s := 0; s < c.K; s++ {
		c.Emit[s].ScaleInPlace(scale)
		c.Trans[s].ScaleInPlace(scale)
	}
}

// sparkWordBasedAttempt reproduces the failed word-based Spark HMM: keyed
// state assignments self-joined to link adjacent positions.
func sparkWordBasedAttempt(ctx *dataflow.Context, cl *sim.Cluster, cfg Config, machineDocs [][][]int) error {
	machines := cl.NumMachines()
	type posKey struct{ doc, pos int }
	wordBytes := int64(96) // a Python (key, (word, state)) tuple
	words := dataflow.Generate(ctx, machines, func(dataflow.Pair[posKey, [2]int]) int64 { return wordBytes },
		func(p int, r *randgen.RNG) []dataflow.Pair[posKey, [2]int] {
			var out []dataflow.Pair[posKey, [2]int]
			for di, doc := range machineDocs[p] {
				for pos, w := range doc {
					out = append(out, dataflow.Pair[posKey, [2]int]{
						K: posKey{doc: p*len(machineDocs[p]) + di, pos: pos},
						V: [2]int{w, r.Intn(cfg.K)},
					})
				}
			}
			return out
		}).SetName("word_states")
	shifted := dataflow.Map(words, func(dataflow.Pair[posKey, [2]int]) int64 { return wordBytes },
		func(m *sim.Meter, kv dataflow.Pair[posKey, [2]int]) dataflow.Pair[posKey, [2]int] {
			kv.K.pos++
			return kv
		})
	joined := dataflow.Join(words, shifted)
	_, err := dataflow.Count(joined)
	if err != nil {
		return fmt.Errorf("hmm spark word-based self-join: %w", err)
	}
	return nil
}

// docHome maps a global doc id back to (machine, index). Ids are assigned
// machine-major at generation.
func docHome(machineDocs [][][]int, id int) (int, int) {
	for mc, docs := range machineDocs {
		if id < len(docs) {
			return mc, id
		}
		id -= len(docs)
	}
	return -1, -1
}

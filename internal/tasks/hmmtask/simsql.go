package hmmtask

import (
	"fmt"

	"mlbench/internal/models/hmm"
	"mlbench/internal/randgen"
	"mlbench/internal/relational"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/task"
)

// statesSchema is the per-word state relation: (docID, pos, word, state,
// prevState). prevState is materialized so the f/g/h aggregations are
// plain GROUP BYs.
func statesSchema() relational.Schema {
	return relational.Ints("docID", "pos", "word", "state", "prevState")
}

// docStateVG resamples the (parity-matching) states of one document in
// C++ and emits one tuple per word — "all of those generated values must
// be output by the VG function as tuples", which is what keeps SimSQL
// hours-per-iteration even though the sampling is cheap.
type docStateVG struct {
	cfg   Config
	model *hmm.Model
	iter  int
}

func (v *docStateVG) Name() string { return "doc_state_resample" }
func (v *docStateVG) OutSchema() relational.Schema {
	return statesSchema()
}
func (v *docStateVG) Apply(m relational.VGMeter, rows []relational.Tuple) []relational.Tuple {
	words := make([]int, len(rows))
	states := make([]int, len(rows))
	for _, t := range rows {
		pos := int(t.Int(1))
		words[pos] = int(t.Int(2))
		states[pos] = int(t.Int(3))
	}
	m.ChargeOps(len(rows)/2, hmm.StateFlopsTier(v.cfg.Sampler, v.cfg.K), 1)
	// One VG instance serves every machine's concurrent Apply calls, so
	// it cannot own a Scratch; nil makes each call allocate its own.
	v.model.ResampleStatesTier(m.RNG(), words, states, v.iter, v.cfg.Sampler, nil)
	out := make([]relational.Tuple, len(rows))
	docID := rows[0].Float(0)
	for pos := range words {
		prev := -1.0
		if pos > 0 {
			prev = float64(states[pos-1])
		}
		out[pos] = relational.T(docID, float64(pos), float64(words[pos]), float64(states[pos]), prev)
	}
	return out
}

// RunSimSQL implements the paper's Section 7.2 SimSQL HMM in all three
// granularities. SimSQL is the only platform that runs the word-based
// simulation (Figure 3(a)) — at more than eight hours per iteration —
// because its disk-streaming relational engine never exhausts memory.
// The word-based plan executes the adjacency self-join (an equi-join
// thanks to the stored nextPos column, or the optimizer's cross-product
// fallback when cfg.UseArithJoinQuirk is set) plus the transition- and
// emission-table joins before parameterizing the Categorical VG; the
// document variant replaces the joins with a per-document C++ VG; the
// super-vertex variant groups each machine's documents into one VG call
// but still emits and aggregates per-word tuples.
func RunSimSQL(cl *sim.Cluster, cfg Config, variant Variant) (*task.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Variant = variant
	res := &task.Result{}
	eng := relational.NewEngine(cl)
	sw := task.NewStopwatch(cl)
	machines := cl.NumMachines()
	h := cfg.hyper()
	cost := cl.Config().Cost

	rng := randgen.New(cfg.Seed ^ 0x4a4b)
	model := hmm.Init(rng, h)
	refreshProposals(cfg, nil, model)

	// Build the per-word state relation and the task-local corpus.
	machineDocs := make([][][]int, machines)
	localStates := make([][][]int, machines)
	states := relational.NewTable("states", statesSchema(), machines)
	states.Scaled = true
	docID := 0
	docsOnMachine0 := 0
	for mc := 0; mc < machines; mc++ {
		docs := genMachineDocs(cl, cfg, mc)
		machineDocs[mc] = docs
		if mc == 0 {
			docsOnMachine0 = len(docs)
		}
		localStates[mc] = make([][]int, len(docs))
		rows := newWordSlab(docs)
		for di, doc := range docs {
			st := hmm.InitStates(rng, doc, cfg.K)
			localStates[mc][di] = st
			for pos, w := range doc {
				prev := -1.0
				if pos > 0 {
					prev = float64(st[pos-1])
				}
				rows.add(float64(docID), float64(pos), float64(w), float64(st[pos]), prev)
			}
			docID++
		}
		states.Parts[mc] = rows.rows
	}
	// Loading plus initial-state assignment: one pass over the word
	// relation and the model-initialization jobs (the paper's word-based
	// init took almost 11 hours; most of it is writing the huge states
	// table through the engine).
	cl.Advance(2 * cost.MRJobLaunch)
	if err := cl.RunPhaseF("hmm-load", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		passes := 2 // write + read back
		if variant == VariantWord {
			passes = 6 // the paper's word-based initialization materializes the join layout
		}
		m.ChargeTuples(passes * len(states.Parts[machine]))
		chargeTableDisk(m, cl, states, machine, passes)
		return nil
	}); err != nil {
		return res, err
	}
	res.InitSec = sw.Lap()

	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := eng.ReplicateModel(modelBytes(cfg.K, cfg.V)); err != nil {
			return res, err
		}
		var newStates *relational.Table
		var err error
		switch variant {
		case VariantWord:
			newStates, err = simsqlWordIteration(eng, cl, cfg, model, states, iter)
		case VariantDoc:
			vg := &docStateVG{cfg: cfg, model: model, iter: iter}
			newStates, err = eng.Run("states", relational.VGApplyP(vg, 0, relational.ScanT(states), false))
		default: // VariantSV
			newStates, err = simsqlSVIteration(cl, cfg, model, machineDocs, localStates, iter)
		}
		if err != nil {
			return res, fmt.Errorf("hmm simsql %s iter %d: %w", variant, iter, err)
		}
		counts, err := simsqlCounts(eng, cfg, newStates)
		if err != nil {
			return res, fmt.Errorf("hmm simsql %s iter %d: counts: %w", variant, iter, err)
		}
		scaleCounts(counts, cl.Scale())
		// Model update: three more random-table jobs (delta0, delta, Psi).
		cl.Advance(3 * cost.MRJobLaunch)
		if err := cl.RunDriver("hmm-model-update", func(m *sim.Meter) error {
			m.SetProfile(sim.ProfileCPP)
			m.ChargeLinalgAbs(cfg.K, float64(cfg.V+cfg.K), 1)
			model.UpdateModel(rng, h, counts)
			refreshProposals(cfg, m, model)
			return nil
		}); err != nil {
			return res, err
		}
		if variant != VariantSV {
			states = newStates
		}
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	// Extract machine 0's final states for the quality diagnostic.
	finalStates := localStates[0]
	if variant != VariantSV {
		finalStates = statesFromTable(states, machineDocs[0], docsOnMachine0)
	}
	recordQuality(cl, cfg, model, finalStates, machineDocs[0], res)
	return res, nil
}

// statesFromTable rebuilds machine 0's state assignments from the
// relation (rows may have migrated machines through shuffles).
func statesFromTable(t *relational.Table, docs [][]int, nDocs int) [][]int {
	out := make([][]int, nDocs)
	for i, d := range docs {
		out[i] = make([]int, len(d))
	}
	for _, part := range t.Parts {
		for _, r := range part {
			d := int(r.Int(0))
			if d < nDocs {
				out[d][r.Int(1)] = int(r.Int(3))
			}
		}
	}
	return out
}

// simsqlWordIteration runs one word-based sweep: adjacency self-join,
// model-table joins, then the per-document Categorical VG (functionally
// the same updates; each VG evaluation is charged per word position).
func simsqlWordIteration(eng *relational.Engine, cl *sim.Cluster, cfg Config, model *hmm.Model, states *relational.Table, iter int) (*relational.Table, error) {
	// Add the explicit nextPos column (the Section 7.2 workaround).
	withNext := relational.ProjectP(relational.ScanT(states),
		statesSchema().Concat(relational.Ints("nextPos")),
		func(t relational.Tuple) relational.Tuple {
			out := t.Clone()
			return append(out, t.Float(1)+1)
		})
	var adjacent relational.Plan
	if cfg.UseArithJoinQuirk {
		// The optimizer's cross-product fallback on t1.pos = t2.pos + 1.
		adjacent = relational.ArithJoinP(relational.ScanT(states), relational.ScanT(states),
			func(l, r relational.Tuple) bool {
				return l.Int(0) == r.Int(0) && l.Int(1) == r.Int(1)-1
			})
	} else {
		adjacent = relational.HashJoinP(withNext, withNext, []int{0, 5}, []int{0, 1})
	}
	if _, err := eng.Run("adjacent", adjacent); err != nil {
		return nil, err
	}
	// The transition- and emission-probability joins: two more passes
	// over the word rows against the model tables.
	cl.Advance(2 * cl.Config().Cost.MRJobLaunch)
	if err := cl.RunPhaseF("hmm-model-joins", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileSQLEngine)
		m.ChargeTuples(2 * len(states.Parts[machine]))
		chargeTableDisk(m, cl, states, machine, 2)
		return nil
	}); err != nil {
		return nil, err
	}
	vg := &docStateVG{cfg: cfg, model: model, iter: iter}
	return eng.Run("states", relational.VGApplyP(vg, 0, relational.ScanT(states), false))
}

// chargeTableDisk charges n streaming passes of a table partition over
// disk.
func chargeTableDisk(m *sim.Meter, cl *sim.Cluster, t *relational.Table, machine, passes int) {
	bytes := float64(len(t.Parts[machine])) * float64(8*len(t.Schema)+16) * float64(passes)
	if t.Scaled {
		bytes *= cl.Scale()
	}
	m.ChargeSec(bytes / cl.Config().Cost.DiskBytesPerSec)
}

// simsqlSVIteration resamples every document inside a per-machine C++ VG
// but still emits one tuple per word, as the paper describes for the
// super-vertex SimSQL code.
func simsqlSVIteration(cl *sim.Cluster, cfg Config, model *hmm.Model, machineDocs [][][]int, localStates [][][]int, iter int) (*relational.Table, error) {
	cl.Advance(cl.Config().Cost.MRJobLaunch)
	out := relational.NewTable("states", statesSchema(), cl.NumMachines())
	out.Scaled = true
	err := cl.RunPhaseF("hmm-sv-vg", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		docs := machineDocs[machine]
		sts := localStates[machine]
		var sc hmm.Scratch
		rows := newWordSlab(docs)
		for di, doc := range docs {
			m.ChargeBulk(float64(len(doc)) * hmm.StateFlopsTier(cfg.Sampler, cfg.K) / 2)
			model.ResampleStatesTier(m.RNG(), doc, sts[di], iter, cfg.Sampler, &sc)
			for pos, wd := range doc {
				prev := -1.0
				if pos > 0 {
					prev = float64(sts[di][pos-1])
				}
				rows.add(float64(di), float64(pos), float64(wd), float64(sts[di][pos]), prev)
			}
		}
		// Emitting the per-word tuples goes through the SQL engine and
		// the random-table versioning sort.
		m.SetProfile(sim.ProfileSQLEngine)
		m.ChargeTuples(3 * len(rows.rows))
		out.Parts[machine] = rows.rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// wordSlab builds one machine's per-word state rows, carving every row
// from a single slab sized to the machine's word count.
type wordSlab struct {
	rows  []relational.Tuple
	cells []float64
}

// newWordSlab returns an empty wordSlab sized for docs' words.
func newWordSlab(docs [][]int) *wordSlab {
	n := 0
	for _, d := range docs {
		n += len(d)
	}
	w := len(statesSchema())
	return &wordSlab{rows: make([]relational.Tuple, 0, n), cells: make([]float64, 0, n*w)}
}

// add appends one (docID, pos, word, state, prevState) row.
func (s *wordSlab) add(vals ...float64) {
	lo := len(s.cells)
	s.cells = append(s.cells, vals...)
	s.rows = append(s.rows, s.cells[lo:len(s.cells):len(s.cells)])
}

// simsqlCounts aggregates f(w,s), g(s) and h(s,s') with three GROUP BY
// jobs over the per-word state rows.
func simsqlCounts(eng *relational.Engine, cfg Config, t *relational.Table) (*hmm.Counts, error) {
	counts := hmm.NewCounts(cfg.K, cfg.V)
	fT, err := eng.Run("f", relational.AsModelP(relational.GroupAggP(relational.ScanT(t),
		[]int{2, 3}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
	if err != nil {
		return nil, err
	}
	for _, r := range fT.Rows() {
		counts.Emit[r.Int(1)][r.Int(0)] += r.Float(2)
	}
	gT, err := eng.Run("g", relational.AsModelP(relational.GroupAggP(
		relational.SelectP(relational.ScanT(t), func(r relational.Tuple) bool { return r.Int(1) == 0 }),
		[]int{3}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
	if err != nil {
		return nil, err
	}
	for _, r := range gT.Rows() {
		counts.Start[r.Int(0)] += r.Float(1)
	}
	hT, err := eng.Run("h", relational.AsModelP(relational.GroupAggP(
		relational.SelectP(relational.ScanT(t), func(r relational.Tuple) bool { return r.Int(4) >= 0 }),
		[]int{4, 3}, []relational.AggSpec{{Kind: relational.AggCount, Name: "n"}})))
	if err != nil {
		return nil, err
	}
	for _, r := range hT.Rows() {
		counts.Trans[r.Int(0)][r.Int(1)] += r.Float(2)
	}
	return counts, nil
}

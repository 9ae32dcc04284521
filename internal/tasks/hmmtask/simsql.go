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
	out := relational.NewRowSlab(len(rows), len(statesSchema()))
	docID := rows[0].Float(0)
	for pos := range words {
		out.Add(stateRow(docID, pos, words, states))
	}
	return out.Rows()
}

// stateRow returns word pos of a document (words, states) as a state
// relation row: (docID, pos, word, state, prevState), prevState -1 at
// the first word.
func stateRow(docID float64, pos int, words, states []int) (float64, float64, float64, float64, float64) {
	prev := -1.0
	if pos > 0 {
		prev = float64(states[pos-1])
	}
	return docID, float64(pos), float64(words[pos]), float64(states[pos]), prev
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

	// Build the task-local corpus and its initial states, then the
	// per-word state relation: held in memory for the word and document
	// variants, whose VG rewrites it each iteration, and a generator over
	// the task-local states for the super-vertex variant.
	machineDocs := make([][][]int, machines)
	localStates := make([][][]int, machines)
	for mc := 0; mc < machines; mc++ {
		machineDocs[mc] = genMachineDocs(cl, cfg, mc)
		localStates[mc] = make([][]int, len(machineDocs[mc]))
		for di, doc := range machineDocs[mc] {
			localStates[mc][di] = hmm.InitStates(rng, doc, cfg.K)
		}
	}
	states := svStates(machineDocs, localStates)
	if variant != VariantSV {
		states = heldStates(machineDocs, localStates)
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
		m.ChargeTuples(passes * states.PartLen(machine))
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
			newStates, err = states, simsqlSVIteration(cl, cfg, model, states, machineDocs, localStates, iter)
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
		states = newStates
		res.IterSecs = append(res.IterSecs, sw.Lap())
	}

	// Extract machine 0's final states for the quality diagnostic.
	finalStates := localStates[0]
	if variant != VariantSV {
		finalStates = statesFromTable(states, machineDocs[0])
	}
	recordQuality(cl, cfg, model, finalStates, machineDocs[0], res)
	return res, nil
}

// statesFromTable rebuilds machine 0's state assignments from the
// relation (rows may have migrated machines through shuffles).
func statesFromTable(t *relational.Table, docs [][]int) [][]int {
	out := make([][]int, len(docs))
	for i, d := range docs {
		out[i] = make([]int, len(d))
	}
	for p := 0; p < t.NumParts(); p++ {
		t.EachRow(p, func(r relational.Tuple) {
			d := int(r.Int(0))
			if d < len(docs) {
				out[d][r.Int(1)] = int(r.Int(3))
			}
		})
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
		func(t, out relational.Tuple) {
			copy(out, t)
			out[len(t)] = t.Float(1) + 1
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
		m.ChargeTuples(2 * states.PartLen(machine))
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
	bytes := float64(t.PartLen(machine)) * float64(8*len(t.Schema)+16) * float64(passes)
	if t.Scaled {
		bytes *= cl.Scale()
	}
	m.ChargeSec(bytes / cl.Config().Cost.DiskBytesPerSec)
}

// simsqlSVIteration resamples every document inside a per-machine C++ VG
// but still emits one tuple per word, as the paper describes for the
// super-vertex SimSQL code. It resamples localStates in place, so
// states, the generator over them, then yields the new assignments.
func simsqlSVIteration(cl *sim.Cluster, cfg Config, model *hmm.Model, states *relational.Table, machineDocs [][][]int, localStates [][][]int, iter int) error {
	cl.Advance(cl.Config().Cost.MRJobLaunch)
	return cl.RunPhaseF("hmm-sv-vg", func(machine int, m *sim.Meter) error {
		m.SetProfile(sim.ProfileCPP)
		sts := localStates[machine]
		var sc hmm.Scratch
		for di, doc := range machineDocs[machine] {
			m.ChargeBulk(float64(len(doc)) * hmm.StateFlopsTier(cfg.Sampler, cfg.K) / 2)
			model.ResampleStatesTier(m.RNG(), doc, sts[di], iter, cfg.Sampler, &sc)
		}
		// Emitting the per-word tuples goes through the SQL engine and
		// the random-table versioning sort.
		m.SetProfile(sim.ProfileSQLEngine)
		m.ChargeTuples(3 * states.PartLen(machine))
		return nil
	})
}

// svStates is the super-vertex variant's per-word state relation, a
// generator over the task-local corpus: machine mc's rows are its
// documents' words, numbered by the document's index on the machine,
// with the states localStates holds when the rows are read.
func svStates(machineDocs, localStates [][][]int) *relational.Table {
	t := &relational.Table{Name: "states", Schema: statesSchema(), Scaled: true, GenRows: make([]int, len(machineDocs))}
	for mc, docs := range machineDocs {
		t.GenRows[mc] = wordCount(docs)
	}
	t.Gen = func(part int, yield func(relational.Tuple)) {
		row := make(relational.Tuple, len(t.Schema))
		for di, doc := range machineDocs[part] {
			for pos := range doc {
				row[0], row[1], row[2], row[3], row[4] = stateRow(float64(di), pos, doc, localStates[part][di])
				yield(row)
			}
		}
	}
	return t
}

// heldStates returns the per-word state relation held in memory, its
// documents numbered across machines in machine order.
func heldStates(machineDocs, localStates [][][]int) *relational.Table {
	t := relational.NewTable("states", statesSchema(), len(machineDocs))
	t.Scaled = true
	docID := 0
	for mc, docs := range machineDocs {
		rows := relational.NewRowSlab(wordCount(docs), len(t.Schema))
		for di, doc := range docs {
			for pos := range doc {
				rows.Add(stateRow(float64(docID), pos, doc, localStates[mc][di]))
			}
			docID++
		}
		t.Parts[mc] = rows.Rows()
	}
	return t
}

// wordCount returns the number of words in docs.
func wordCount(docs [][]int) int {
	n := 0
	for _, d := range docs {
		n += len(d)
	}
	return n
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

package bench

import (
	"context"
	"fmt"
	"slices"

	"mlbench/internal/faults"
	"mlbench/internal/sim"
	"mlbench/internal/tasks/gmmtask"
	"mlbench/internal/tasks/hmmtask"
	"mlbench/internal/tasks/imputetask"
	"mlbench/internal/tasks/lassotask"
	"mlbench/internal/tasks/ldatask"
	"mlbench/internal/tasks/task"
	"mlbench/internal/trace"
)

// runFn executes one cell's simulation on a prepared cluster.
type runFn func(cl *sim.Cluster) (*task.Result, error)

// cellSpec is one table cell to run.
type cellSpec struct {
	col       string
	machines  int
	scale     float64
	run       runFn
	paperIter string // "Fail", "NA", or H:MM:SS
	paperInit string
	// faults, when set, overrides RunSpec.Faults for this cell.
	faults *FaultConfig
}

// rowSpec is one table row.
type rowSpec struct {
	label string
	cells []cellSpec
}

// figure is one runnable figure, built for one normalized RunSpec. A
// builder fills rows, and title only when the spec's knobs appear in it;
// buildFigure fills the rest from the registry entry.
type figure struct {
	id    string
	title string
	rows  []rowSpec
}

// registry is every table of the evaluation, in paper order. Listing the
// figures reads only id and title (the title the default spec renders);
// build runs for the one figure a spec names.
var registry = []struct {
	id, title string
	build     func(RunSpec) *figure
}{
	{"fig1a", "GMM: initial implementations (avg time per iteration, init in parens)", fig1a},
	{"fig1b", "GMM: alternative implementations", fig1b},
	{"fig1c", "GMM: super vertex implementations (5 machines)", fig1c},
	{"fig2", "Bayesian Lasso (avg time per iteration, init in parens)", fig2},
	{"fig3a", "HMM: word-based and document-based (5 machines)", fig3a},
	{"fig3b", "HMM: super vertex implementations", fig3b},
	{"fig4a", "LDA: word-based and document-based (5 machines)", fig4a},
	{"fig4b", "LDA: super vertex implementations", fig4b},
	{"fig5", "Gaussian imputation", fig5},
	{"fig6", "LDA: Spark Java implementation", fig6},
	{"fig7", "GMM 10d under failure: 1 machine crash(es) mid-run (avg time per iteration, init in parens)", fig7},
	{"fig7b", "GMM 10d, 20 machines: iteration time vs number of failures (checkpointing on in all columns)", fig7b},
	{"fig7c", "Checkpoint-interval ablation: GMM 10d, 20 machines, 1 crash (interval in supersteps/rounds)", fig7c},
	{"fig-ps", "Parameter server vs the paper's platforms (5 machines; shards=per-machine staleness=0 on the PS row)", figPS},
	{"fig-skew", "LDA under heavy-tailed corpus skew (5 machines; datagen scenarios per column)", figSkew},
	{"fig-imbal", "GMM under partition imbalance (5 machines; datagen scenarios per column)", figImbal},
	{"fig-scale", "Streamed scale-out sweep: GMM and LDA at 100/1000/10000 simulated machines (shards=64 staleness=0 on the PS row)", figScale},
}

// FigureInfo is one line of the figure listing.
type FigureInfo struct {
	ID    string
	Title string
}

// Figures lists the registered figures in paper order without building
// any of them.
func Figures() []FigureInfo {
	out := make([]FigureInfo, len(registry))
	for i, d := range registry {
		out[i] = FigureInfo{ID: d.id, Title: d.title}
	}
	return out
}

// FigureIDs lists the registered figure ids in paper order.
func FigureIDs() []string {
	ids := make([]string, len(registry))
	for i, d := range registry {
		ids[i] = d.id
	}
	return ids
}

// buildFigure builds the figure the normalized spec s names, or returns
// nil for an unknown id.
func buildFigure(s RunSpec) *figure {
	for _, d := range registry {
		if d.id != s.Figure {
			continue
		}
		f := d.build(s)
		f.id = d.id
		if f.title == "" {
			f.title = d.title
		}
		return f
	}
	return nil
}

// newCluster builds the simulated cluster for one run of a cell. The
// clean probe run passes a zero ExecOptions and FaultConfig and a nil
// schedule: only the measured run is traced, reports progress (labelled
// cellName), and carries the fault schedule and the engines'
// checkpointing policies.
func newCluster(ctx context.Context, c cellSpec, s RunSpec, ex ExecOptions, sched *faults.Schedule, fc FaultConfig, cellName string) *sim.Cluster {
	cfg := sim.DefaultConfig(c.machines)
	cfg.Scale = c.scale / s.ScaleDiv
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	cfg.Seed = s.Seed
	cfg.Tracer = ex.Recorder
	cfg.HostWorkers = s.Workers
	cfg.ChunkElems = s.Chunk
	cfg.Faults = sched
	cfg.Ctx = ctx
	if ex.Progress != nil {
		cfg.Progress = func(phase string, clockSec float64) {
			ex.Progress(ProgressEvent{Cell: cellName, Phase: phase, ClockSec: clockSec})
		}
	}
	cfg.Recovery.BSPCheckpointEvery = interval(fc.BSPCheckpointEvery)
	cfg.Recovery.GASSnapshotEvery = interval(fc.GASSnapshotEvery)
	return sim.New(cfg)
}

// runCell executes one cell. When faults are configured, the cell runs
// twice: a clean probe run learns the deterministic init and iteration
// times, then the measured run re-executes with crashes scheduled at
// absolute virtual times inside the measured window (and observed
// recoveries recorded in the cell's notes).
//
// The returned error is non-nil only when ctx was cancelled: simulated
// failures (OOM) become "Fail" cells, but a cancelled host run is not a
// result at all and must propagate.
func runCell(ctx context.Context, c cellSpec, figID, row string, s RunSpec, ex ExecOptions) (Cell, error) {
	cell := Cell{
		RowLabel:     row,
		ColLabel:     c.col,
		PaperIterSec: ParseDuration(c.paperIter),
		PaperInitSec: ParseDuration(c.paperInit),
		PaperFail:    c.paperIter == "Fail",
		PaperNA:      c.paperIter == "NA",
	}
	if c.run == nil || cell.PaperNA {
		cell.Skipped = true
		return cell, nil
	}
	cellName := figID + "/" + row + "/" + c.col
	fc := s.Faults
	if c.faults != nil {
		fc = *c.faults
	}
	var sched *faults.Schedule
	if fc.Active() {
		fc = fc.withFaultDefaults()
		probe := newCluster(ctx, c, s, ExecOptions{}, nil, FaultConfig{}, "")
		res, err := c.run(probe)
		if sim.IsCanceled(err) {
			return cell, fmt.Errorf("bench: cell %s: %w", cellName, err)
		}
		if err == nil {
			sched = fc.schedule(res.InitSec, res.AvgIterSec(), s.Iterations, c.machines, s.Seed)
		}
	}
	if ex.Recorder != nil {
		ex.Recorder.BeginCell(cellName)
	}
	cl := newCluster(ctx, c, s, ex, sched, fc, cellName)
	res, err := c.run(cl)
	if err != nil {
		if sim.IsCanceled(err) {
			return cell, fmt.Errorf("bench: cell %s: %w", cellName, err)
		}
		if sim.IsOOM(err) {
			cell.Failed = true
			cell.Notes = append(cell.Notes, err.Error())
		} else {
			cell.Failed = true
			cell.Notes = append(cell.Notes, "error: "+err.Error())
		}
	} else {
		cell.IterSec = res.AvgIterSec()
		cell.InitSec = res.InitSec
		cell.Notes = res.Notes
	}
	for _, f := range cl.Faults() {
		cell.Notes = append(cell.Notes, fmt.Sprintf("fault: %s, observed at %s in %q, recovery %s",
			f.Event, FormatDuration(f.ObservedAt), f.Phase, FormatDuration(f.RecoverySec)))
	}
	if s.Trace.Phases && ex.Recorder != nil {
		cell.Notes = append(cell.Notes, trace.TopPhases(ex.Recorder, cellName, 5, FormatDuration)...)
	}
	return cell, nil
}

// run executes the figure's cells under the normalized spec s — only the
// one s.Row/s.Col names when they are set — and returns the table. A
// cancelled ctx aborts the run mid-phase with an error wrapping
// context.Canceled.
func (f *figure) run(ctx context.Context, s RunSpec, ex ExecOptions) (*Table, error) {
	t := &Table{ID: f.id, Title: f.title, Cells: map[string]map[string]Cell{}}
	for _, r := range f.rows {
		if s.Row != "" && r.label != s.Row {
			continue
		}
		t.Rows = append(t.Rows, r.label)
		t.Cells[r.label] = map[string]Cell{}
		for _, c := range r.cells {
			if s.Col != "" && c.col != s.Col {
				continue
			}
			if !slices.Contains(t.Cols, c.col) {
				t.Cols = append(t.Cols, c.col)
			}
			cell, err := runCell(ctx, c, f.id, r.label, s, ex)
			if err != nil {
				return nil, err
			}
			t.Cells[r.label][c.col] = cell
		}
	}
	return t, nil
}

// --- GMM (Figure 1) ---

func gmmCfg(s RunSpec, d int, sv bool) gmmtask.Config {
	pts := 10_000_000
	if d == 100 {
		pts = 1_000_000
	}
	return gmmtask.Config{K: 10, D: d, PointsPerMachine: pts, Iterations: s.Iterations, SuperVertex: sv, Dataset: s.Dataset}
}

// gmmScale picks the scale so each machine holds a manageable number of
// real points.
func gmmScale(d int) float64 {
	if d == 100 {
		return 10_000 // 100 real points/machine
	}
	return 10_000 // 1,000 real points/machine
}

func gmmCols(s RunSpec, sv bool, profile *sim.Profile, platform string) []cellSpec {
	mk := func(col string, machines, d int) cellSpec {
		cfg := gmmCfg(s, d, sv)
		var run runFn
		switch platform {
		case "spark":
			run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSpark(cl, cfg, *profile) }
		case "simsql":
			run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunSimSQL(cl, cfg) }
		case "graphlab":
			run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGraphLab(cl, cfg) }
		case "giraph":
			run = func(cl *sim.Cluster) (*task.Result, error) { return gmmtask.RunGiraph(cl, cfg) }
		}
		return cellSpec{col: col, machines: machines, scale: gmmScale(d), run: run}
	}
	return []cellSpec{
		mk("10d/5m", 5, 10), mk("10d/20m", 20, 10), mk("10d/100m", 100, 10), mk("100d/5m", 5, 100),
	}
}

func withPaper(cells []cellSpec, iters, inits []string) []cellSpec {
	for i := range cells {
		cells[i].paperIter = iters[i]
		if inits != nil {
			cells[i].paperInit = inits[i]
		}
	}
	return cells
}

func fig1a(s RunSpec) *figure {
	py := sim.ProfilePython
	return &figure{
		rows: []rowSpec{
			{"SimSQL", withPaper(gmmCols(s, false, nil, "simsql"),
				[]string{"27:55", "28:55", "35:54", "1:51:12"}, []string{"13:55", "14:38", "18:58", "36:08"})},
			{"GraphLab", withPaper(gmmCols(s, false, nil, "graphlab"),
				[]string{"Fail", "Fail", "Fail", "Fail"}, nil)},
			{"Spark (Python)", withPaper(gmmCols(s, false, &py, "spark"),
				[]string{"26:04", "37:34", "38:09", "47:40"}, []string{"4:10", "2:27", "2:00", "0:52"})},
			{"Giraph", withPaper(gmmCols(s, false, nil, "giraph"),
				[]string{"25:21", "30:26", "Fail", "Fail"}, []string{"0:18", "0:15", "", ""})},
		},
	}
}

func fig1b(s RunSpec) *figure {
	jv := sim.ProfileJava
	return &figure{
		rows: []rowSpec{
			{"Spark (Java)", withPaper(gmmCols(s, false, &jv, "spark"),
				[]string{"12:30", "12:25", "18:11", "6:25:04"}, []string{"2:01", "2:03", "2:26", "36:08"})},
			{"GraphLab (Super Vertex)", withPaper(gmmCols(s, true, nil, "graphlab"),
				[]string{"6:13", "4:36", "6:09", "33:32"}, []string{"1:13", "2:47", "1:21", "0:42"})},
		},
	}
}

func fig1c(s RunSpec) *figure {
	py := sim.ProfilePython
	mk := func(platform string, sv bool, d int) cellSpec {
		cols := gmmCols(s, sv, &py, platform)
		// Columns 0 (10d/5m) and 3 (100d/5m) of the standard layout.
		idx := 0
		if d == 100 {
			idx = 3
		}
		c := cols[idx]
		label := fmt.Sprintf("%dd", d)
		if sv {
			c.col = label + " with SV"
		} else {
			c.col = label + " w/o SV"
		}
		return c
	}
	row := func(platform string, iters []string, inits []string) rowSpec {
		cells := []cellSpec{mk(platform, false, 10), mk(platform, true, 10), mk(platform, false, 100), mk(platform, true, 100)}
		return rowSpec{label: platform, cells: withPaper(cells, iters, inits)}
	}
	f := &figure{}
	f.rows = []rowSpec{
		row("simsql", []string{"27:55", "6:20", "1:51:12", "7:22"}, []string{"13:55", "12:33", "36:08", "14:07"}),
		row("graphlab", []string{"Fail", "6:13", "Fail", "33:32"}, []string{"", "1:13", "", "0:42"}),
		row("spark", []string{"26:04", "29:12", "47:40", "47:03"}, []string{"4:10", "4:01", "0:52", "2:17"}),
		row("giraph", []string{"25:21", "13:48", "Fail", "6:17:32"}, []string{"0:18", "0:03", "", "0:03"}),
	}
	// Human-facing row labels.
	f.rows[0].label = "SimSQL"
	f.rows[1].label = "GraphLab"
	f.rows[2].label = "Spark (Python)"
	f.rows[3].label = "Giraph"
	return f
}

// --- Bayesian Lasso (Figure 2) ---

func lassoCfg(s RunSpec) lassotask.Config {
	return lassotask.Config{P: 1000, PointsPerMachine: 100_000, Iterations: s.Iterations, Dataset: s.Dataset}
}

func fig2(s RunSpec) *figure {
	cfg := lassoCfg(s)
	svCfg := cfg
	svCfg.SuperVertex = true
	scaleFor := func(machines int) float64 {
		// Keep total real Gram work bounded as machines grow.
		return 500 * float64(machines) / 5
	}
	row := func(label string, run func(cl *sim.Cluster) (*task.Result, error), iters, inits []string) rowSpec {
		machines := []int{5, 20, 100}
		cells := make([]cellSpec, len(machines))
		for i, m := range machines {
			cells[i] = cellSpec{col: fmt.Sprintf("%dm", m), machines: m, scale: scaleFor(m), run: run}
		}
		return rowSpec{label: label, cells: withPaper(cells, iters, inits)}
	}
	return &figure{
		rows: []rowSpec{
			row("SimSQL", func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunSimSQL(cl, cfg) },
				[]string{"7:09", "8:04", "12:24"}, []string{"2:40:06", "2:45:28", "2:54:45"}),
			row("GraphLab (Super Vertex)", func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunGraphLab(cl, cfg) },
				[]string{"0:36", "0:26", "0:31"}, []string{"0:37", "0:35", "0:50"}),
			row("Spark (Python)", func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunSpark(cl, cfg) },
				[]string{"0:55", "0:59", "1:12"}, []string{"1:26:59", "1:33:13", "2:06:30"}),
			row("Giraph", func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunGiraph(cl, cfg) },
				[]string{"Fail", "Fail", "Fail"}, nil),
			row("Giraph (Super Vertex)", func(cl *sim.Cluster) (*task.Result, error) { return lassotask.RunGiraph(cl, svCfg) },
				[]string{"0:58", "1:03", "2:08"}, []string{"1:14", "1:14", "6:31"}),
		},
	}
}

// --- HMM (Figure 3) ---

func hmmCfg(s RunSpec) hmmtask.Config {
	return hmmtask.Config{K: 20, V: 10_000, DocsPerMachine: 2_500_000, AvgDocLen: 210, Iterations: s.Iterations, Sampler: s.tier(), Dataset: s.Dataset}
}

const hmmScale = 25_000 // 100 real documents per machine

func fig3a(s RunSpec) *figure {
	cfg := hmmCfg(s)
	cell := func(col string, v hmmtask.Variant, run func(cl *sim.Cluster, variant hmmtask.Variant) (*task.Result, error)) cellSpec {
		return cellSpec{col: col, machines: 5, scale: hmmScale,
			run: func(cl *sim.Cluster) (*task.Result, error) { return run(cl, v) }}
	}
	sim2 := func(cl *sim.Cluster, v hmmtask.Variant) (*task.Result, error) { return hmmtask.RunSimSQL(cl, cfg, v) }
	spk := func(cl *sim.Cluster, v hmmtask.Variant) (*task.Result, error) { return hmmtask.RunSpark(cl, cfg, v) }
	gir := func(cl *sim.Cluster, v hmmtask.Variant) (*task.Result, error) { return hmmtask.RunGiraph(cl, cfg, v) }
	return &figure{
		rows: []rowSpec{
			{"SimSQL", withPaper([]cellSpec{
				cell("word-based", hmmtask.VariantWord, sim2),
				cell("document-based", hmmtask.VariantDoc, sim2),
			}, []string{"8:17:07", "3:42:40"}, []string{"10:51:32", "20:44"})},
			{"Spark (Python)", withPaper([]cellSpec{
				cell("word-based", hmmtask.VariantWord, spk),
				cell("document-based", hmmtask.VariantDoc, spk),
			}, []string{"Fail", "4:21:36"}, []string{"", "27:36"})},
			{"Giraph", withPaper([]cellSpec{
				cell("word-based", hmmtask.VariantWord, gir),
				cell("document-based", hmmtask.VariantDoc, gir),
			}, []string{"Fail", "11:02"}, []string{"", "7:03"})},
		},
	}
}

func fig3b(s RunSpec) *figure {
	cfg := hmmCfg(s)
	row := func(label string, run runVariantFn, iters, inits []string) rowSpec {
		machines := []int{5, 20, 100}
		cells := make([]cellSpec, len(machines))
		for i, m := range machines {
			m := m
			cells[i] = cellSpec{col: fmt.Sprintf("%dm", m), machines: m, scale: hmmScale,
				run: func(cl *sim.Cluster) (*task.Result, error) { return run(cl) }}
		}
		return rowSpec{label: label, cells: withPaper(cells, iters, inits)}
	}
	return &figure{
		rows: []rowSpec{
			row("Giraph", func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunGiraph(cl, cfg, hmmtask.VariantSV) },
				[]string{"2:27", "2:44", "3:12"}, []string{"1:12", "1:52", "2:56"}),
			row("GraphLab", func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunGraphLab(cl, cfg) },
				[]string{"20:39", "Fail", "Fail"}, []string{"16:28", "", ""}),
			row("Spark (Python)", func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunSpark(cl, cfg, hmmtask.VariantSV) },
				[]string{"3:45:58", "4:01:02", "Fail"}, []string{"11:02", "13:04", ""}),
			row("SimSQL", func(cl *sim.Cluster) (*task.Result, error) { return hmmtask.RunSimSQL(cl, cfg, hmmtask.VariantSV) },
				[]string{"2:05:12", "2:05:31", "2:19:10"}, []string{"1:44:45", "1:44:36", "2:04:40"}),
		},
	}
}

type runVariantFn = runFn

// --- LDA (Figure 4) ---

func ldaCfg(s RunSpec) ldatask.Config {
	return ldatask.Config{T: 100, V: 10_000, DocsPerMachine: 2_500_000, AvgDocLen: 210, Iterations: s.Iterations, Sampler: s.tier(), Dataset: s.Dataset}
}

const ldaScale = 25_000

func fig4a(s RunSpec) *figure {
	cfg := ldaCfg(s)
	py := sim.ProfilePython
	mk := func(col string, run runVariantFn) cellSpec {
		return cellSpec{col: col, machines: 5, scale: ldaScale, run: run}
	}
	return &figure{
		rows: []rowSpec{
			{"SimSQL", withPaper([]cellSpec{
				mk("word-based", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSimSQL(cl, cfg, ldatask.VariantWord) }),
				mk("document-based", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSimSQL(cl, cfg, ldatask.VariantDoc) }),
			}, []string{"16:34:39", "4:52:06"}, []string{"11:23:22", "4:34:27"})},
			{"Spark (Python)", withPaper([]cellSpec{
				{col: "word-based", paperIter: "NA"},
				mk("document-based", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSpark(cl, cfg, ldatask.VariantDoc, py) }),
			}, []string{"NA", "15:45:00"}, []string{"", "2:30:00"})},
			{"Giraph", withPaper([]cellSpec{
				{col: "word-based", paperIter: "NA"},
				mk("document-based", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGiraph(cl, cfg, ldatask.VariantDoc) }),
			}, []string{"NA", "22:22"}, []string{"", "5:46"})},
		},
	}
}

func fig4b(s RunSpec) *figure {
	cfg := ldaCfg(s)
	py := sim.ProfilePython
	row := func(label string, run runVariantFn, iters, inits []string) rowSpec {
		machines := []int{5, 20, 100}
		cells := make([]cellSpec, len(machines))
		for i, m := range machines {
			cells[i] = cellSpec{col: fmt.Sprintf("%dm", m), machines: m, scale: ldaScale, run: run}
		}
		return rowSpec{label: label, cells: withPaper(cells, iters, inits)}
	}
	return &figure{
		rows: []rowSpec{
			row("Giraph", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGiraph(cl, cfg, ldatask.VariantSV) },
				[]string{"18:49", "20:02", "Fail"}, []string{"2:35", "2:46", ""}),
			row("GraphLab", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunGraphLab(cl, cfg) },
				[]string{"39:27", "Fail", "Fail"}, []string{"32:14", "", ""}),
			row("Spark (Python)", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSpark(cl, cfg, ldatask.VariantSV, py) },
				[]string{"3:56:00", "3:57:00", "Fail"}, []string{"2:15:00", "2:15:00", ""}),
			row("SimSQL", func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSimSQL(cl, cfg, ldatask.VariantSV) },
				[]string{"1:00:17", "1:06:59", "1:13:58"}, []string{"3:09", "3:34", "4:28"}),
		},
	}
}

// --- Gaussian imputation (Figure 5) ---

func fig5(s RunSpec) *figure {
	cfg := imputetask.Config{K: 10, D: 10, PointsPerMachine: 10_000_000, Iterations: s.Iterations}
	row := func(label string, run runVariantFn, iters, inits []string) rowSpec {
		machines := []int{5, 20, 100}
		cells := make([]cellSpec, len(machines))
		for i, m := range machines {
			cells[i] = cellSpec{col: fmt.Sprintf("%dm", m), machines: m, scale: 10_000, run: run}
		}
		return rowSpec{label: label, cells: withPaper(cells, iters, inits)}
	}
	return &figure{
		rows: []rowSpec{
			row("Giraph", func(cl *sim.Cluster) (*task.Result, error) { return imputetask.RunGiraph(cl, cfg) },
				[]string{"28:43", "31:23", "Fail"}, []string{"0:19", "0:18", ""}),
			row("GraphLab (Super Vertex)", func(cl *sim.Cluster) (*task.Result, error) { return imputetask.RunGraphLab(cl, cfg) },
				[]string{"6:59", "6:12", "6:08"}, []string{"3:41", "8:40", "3:03"}),
			row("Spark (Python)", func(cl *sim.Cluster) (*task.Result, error) { return imputetask.RunSpark(cl, cfg) },
				[]string{"1:22:48", "1:27:39", "1:29:27"}, []string{"3:52", "4:03", "4:27"}),
			row("SimSQL", func(cl *sim.Cluster) (*task.Result, error) { return imputetask.RunSimSQL(cl, cfg) },
				[]string{"28:53", "30:41", "39:33"}, []string{"14:29", "15:30", "22:15"}),
		},
	}
}

// --- LDA Spark Java (Figure 6) ---

func fig6(s RunSpec) *figure {
	cfg := ldaCfg(s)
	jv := sim.ProfileJava
	machines := []int{5, 20, 100}
	cells := make([]cellSpec, len(machines))
	for i, m := range machines {
		cells[i] = cellSpec{col: fmt.Sprintf("%dm", m), machines: m, scale: ldaScale,
			run: func(cl *sim.Cluster) (*task.Result, error) { return ldatask.RunSpark(cl, cfg, ldatask.VariantSV, jv) }}
	}
	return &figure{
		rows: []rowSpec{
			{"Spark (Java)", withPaper(cells, []string{"9:47", "19:36", "Fail"}, []string{"0:53", "1:15", ""})},
		},
	}
}

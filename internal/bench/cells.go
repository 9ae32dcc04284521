package bench

// CellRef addresses one runnable cell of a registered figure by its
// rendered labels. The perf gate (internal/perfgate) enumerates refs to
// wall-time every table cell individually, so a regression report can
// name the exact experiment that slowed down.
type CellRef struct {
	Figure string
	Row    string
	Col    string
}

func (r CellRef) String() string {
	return r.Figure + ":" + r.Row + ":" + r.Col
}

// Options is what RunSpec.Options returns and RunnableCellRefs accepts: a
// wrapped RunSpec and nothing else. It exists only because the frozen
// benchmark/ module spells bench.RunnableCellRefs(spec.Normalize().Options());
// when benchmark/ next changes, RunnableCellRefs should take the RunSpec
// and both Options and RunSpec.Options should go.
type Options struct{ spec RunSpec }

// Options wraps the spec for RunnableCellRefs; see Options.
func (s RunSpec) Options() Options { return Options{s} }

// RunnableCellRefs enumerates every cell of every figure that has a run
// function (paper-NA cells are skipped), in rendering order, with each
// figure built under the spec's knobs (its Figure, Row and Col are
// ignored).
func RunnableCellRefs(o Options) []CellRef {
	var refs []CellRef
	s := o.spec
	for _, id := range FigureIDs() {
		s.Figure = id
		f := buildFigure(s.Normalize())
		for _, r := range f.rows {
			for _, c := range r.cells {
				if c.run == nil || c.paperIter == "NA" {
					continue
				}
				refs = append(refs, CellRef{Figure: f.id, Row: r.label, Col: c.col})
			}
		}
	}
	return refs
}

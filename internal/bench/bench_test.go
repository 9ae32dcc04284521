package bench

import (
	"context"
	"strings"
	"testing"
)

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{0, "0:00"},
		{59.4, "0:59"},
		{61, "1:01"},
		{3599, "59:59"},
		{3600, "1:00:00"},
		{3 * 3600, "3:00:00"},
		{5025, "1:23:45"},
		{-1, "?"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.sec); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.sec, got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"27:55", 27*60 + 55},
		{"1:51:12", 3600 + 51*60 + 12},
		{"0:36", 36},
		{"Fail", -1},
		{"NA", -1},
		{"", -1},
	}
	for _, c := range cases {
		if got := ParseDuration(c.s); got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	for _, s := range []string{"27:55", "1:51:12", "0:36", "6:17:32"} {
		if got := FormatDuration(ParseDuration(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestCellStringAndAgreement(t *testing.T) {
	c := Cell{IterSec: 120, InitSec: 30, PaperIterSec: 100}
	if got := c.String(); got != "2:00 (0:30)" {
		t.Errorf("String = %q", got)
	}
	if !c.Agrees(3) {
		t.Error("120 vs 100 should agree within 3x")
	}
	if c.Agrees(1.1) {
		t.Error("120 vs 100 should not agree within 1.1x")
	}
	fail := Cell{Failed: true, PaperFail: true}
	if !fail.Agrees(1) || fail.String() != "Fail" {
		t.Errorf("fail cell: %q agrees=%v", fail.String(), fail.Agrees(1))
	}
	mismatch := Cell{Failed: true, PaperIterSec: 100}
	if mismatch.Agrees(100) {
		t.Error("measured Fail vs paper success must disagree")
	}
}

func TestRegistryCoversAllFigures(t *testing.T) {
	want := []string{"fig1a", "fig1b", "fig1c", "fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig7b", "fig7c", "fig-ps", "fig-skew", "fig-imbal", "fig-scale"}
	infos := Figures()
	if len(infos) != len(want) {
		t.Fatalf("got %d figures, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.ID != want[i] {
			t.Errorf("figure %d = %s, want %s", i, info.ID, want[i])
		}
		f := buildFigure(RunSpec{Figure: info.ID}.Normalize())
		// The listing title is a literal; it must be what the default
		// spec renders, also for the figures that format knobs into it.
		if f.id != info.ID || f.title != info.Title {
			t.Errorf("figure %s built as %s %q, listed as %q", info.ID, f.id, f.title, info.Title)
		}
		if len(f.rows) == 0 {
			t.Errorf("figure %s has no rows", f.id)
		}
		rows := map[string]bool{}
		for _, r := range f.rows {
			if rows[r.label] {
				t.Errorf("figure %s has two rows labelled %q", f.id, r.label)
			}
			rows[r.label] = true
			if len(r.cells) == 0 {
				t.Errorf("figure %s row %s has no cells", f.id, r.label)
			}
			cols := map[string]bool{}
			for _, c := range r.cells {
				if cols[c.col] {
					t.Errorf("figure %s row %s has two columns labelled %q", f.id, r.label, c.col)
				}
				cols[c.col] = true
				if c.run == nil && c.paperIter != "NA" {
					t.Errorf("figure %s row %s col %s has no runner", f.id, r.label, c.col)
				}
			}
		}
	}
}

func TestFigureByID(t *testing.T) {
	if buildFigure(RunSpec{Figure: "fig2"}.Normalize()) == nil {
		t.Error("fig2 not found")
	}
	if buildFigure(RunSpec{Figure: "nope"}.Normalize()) != nil {
		t.Error("unknown id should be nil")
	}
}

func TestRunSmallFigure(t *testing.T) {
	// Run fig6 (one row) at reduced iterations to exercise the runner
	// end to end, including a Fail cell.
	res, err := ExecuteSpec(context.Background(), RunSpec{Figure: "fig6", Iterations: 1}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if len(tbl.Rows) != 1 || len(tbl.Cols) != 3 {
		t.Fatalf("table shape %dx%d", len(tbl.Rows), len(tbl.Cols))
	}
	c100 := tbl.Cells["Spark (Java)"]["100m"]
	if !c100.Failed {
		t.Errorf("100m cell should fail, got %+v", c100)
	}
	c5 := tbl.Cells["Spark (Java)"]["5m"]
	if c5.Failed || c5.IterSec <= 0 {
		t.Errorf("5m cell should succeed: %+v", c5)
	}
	if !strings.Contains(tbl.Render(), "fig6") {
		t.Error("render missing figure id")
	}
	if m, n := tbl.Agreement(3); n == 0 || m == 0 {
		t.Errorf("agreement %d/%d unexpected", m, n)
	}
}

// TestLinesOfCode requires every implFiles row: LinesOfCode skips a file
// it cannot read, so a moved or renamed file would drop its row from the
// table without a word.
func TestLinesOfCode(t *testing.T) {
	locs := LinesOfCode()
	have := map[[2]string]bool{}
	for _, l := range locs {
		have[[2]string{l.Task, l.Platform}] = true
	}
	for _, f := range implFiles {
		if !have[[2]string{f.task, f.platform}] {
			t.Errorf("LinesOfCode dropped the %s / %s row (%s)", f.task, f.platform, f.file)
		}
	}
	for _, l := range locs {
		if l.Lines < 30 {
			t.Errorf("%s/%s suspiciously short: %d lines", l.Task, l.Platform, l.Lines)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := &Table{ID: "figX", Title: "demo", Cols: []string{"a"}, Rows: []string{"r"},
		Cells: map[string]map[string]Cell{"r": {"a": {IterSec: 60, InitSec: 5, PaperIterSec: 90, PaperInitSec: -1}}}}
	md := tbl.RenderMarkdown()
	for _, want := range []string{"### figX", "| r |", "1:00 (0:05)", "*[paper 1:30]*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

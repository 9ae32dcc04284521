// Package bench is the benchmark harness — the paper's actual
// contribution. It holds the registry of every experiment in the
// evaluation (one entry per table cell of Figures 1-6), the runner that
// executes them on the simulated cluster, the paper's published numbers
// for side-by-side comparison, and the table formatter that prints
// results in the paper's HH:MM:SS layout.
package bench

import (
	"fmt"
	"strings"
)

// FormatDuration renders virtual seconds the way the paper's tables do:
// H:MM:SS when an hour or more, MM:SS otherwise.
func FormatDuration(sec float64) string {
	if sec < 0 {
		return "?"
	}
	s := int(sec + 0.5)
	h := s / 3600
	m := (s % 3600) / 60
	r := s % 60
	if h > 0 {
		return fmt.Sprintf("%d:%02d:%02d", h, m, r)
	}
	return fmt.Sprintf("%d:%02d", m, r)
}

// ParseDuration parses the paper's H:MM:SS / MM:SS strings to seconds;
// -1 means Fail/NA.
func ParseDuration(s string) float64 {
	s = strings.TrimSpace(s)
	if s == "" || s == "Fail" || s == "NA" {
		return -1
	}
	parts := strings.Split(s, ":")
	var total float64
	for _, p := range parts {
		var v float64
		fmt.Sscanf(p, "%f", &v)
		total = total*60 + v
	}
	return total
}

// Cell is one measured table cell.
type Cell struct {
	RowLabel string
	ColLabel string
	// Measured values (negative when failed or not applicable).
	IterSec float64
	InitSec float64
	Failed  bool
	Skipped bool // configuration the paper marked NA
	Notes   []string
	// Paper reference values (negative when Fail/NA).
	PaperIterSec float64
	PaperInitSec float64
	PaperFail    bool
	PaperNA      bool
}

// String renders the cell in the paper's "iter (init)" format.
func (c Cell) String() string {
	switch {
	case c.Skipped:
		return "NA"
	case c.Failed:
		return "Fail"
	default:
		return fmt.Sprintf("%s (%s)", FormatDuration(c.IterSec), FormatDuration(c.InitSec))
	}
}

// PaperString renders the paper's value for the cell.
func (c Cell) PaperString() string {
	switch {
	case c.PaperNA:
		return "NA"
	case c.PaperFail:
		return "Fail"
	case c.PaperIterSec < 0:
		return "?"
	default:
		if c.PaperInitSec >= 0 {
			return fmt.Sprintf("%s (%s)", FormatDuration(c.PaperIterSec), FormatDuration(c.PaperInitSec))
		}
		return FormatDuration(c.PaperIterSec)
	}
}

// Agrees reports whether the measured cell matches the paper
// qualitatively: Fail cells match Fail cells, and timed cells match when
// the per-iteration times are within the given multiplicative factor.
func (c Cell) Agrees(factor float64) bool {
	if c.Skipped || c.PaperNA {
		return true
	}
	if !c.PaperFail && c.PaperIterSec <= 0 {
		// No paper reference at all (the fig7 family, fig-ps): nothing to
		// disagree with, whatever the measured outcome.
		return true
	}
	if c.Failed || c.PaperFail {
		return c.Failed == c.PaperFail
	}
	if c.IterSec <= 0 {
		return true
	}
	r := c.IterSec / c.PaperIterSec
	return r >= 1/factor && r <= factor
}

// Table is one rendered figure.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  []string
	Cells map[string]map[string]Cell // row -> col -> cell
}

// Render prints the table with measured and paper values side by side.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	rowWidth := 28
	colWidth := 34
	fmt.Fprintf(&b, "%-*s", rowWidth, "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%-*s", colWidth, c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", rowWidth, r)
		for _, cl := range t.Cols {
			cell := t.Cells[r][cl]
			fmt.Fprintf(&b, "%-*s", colWidth, fmt.Sprintf("%s [paper %s]", cell.String(), cell.PaperString()))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderMarkdown prints the table as a GitHub-flavored markdown table
// with measured and paper values per cell.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| |")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Cols {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r)
		for _, cl := range t.Cols {
			cell := t.Cells[r][cl]
			fmt.Fprintf(&b, " %s *[paper %s]* |", cell.String(), cell.PaperString())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Agreement summarizes how many cells match the paper within the factor.
func (t *Table) Agreement(factor float64) (matched, total int) {
	for _, r := range t.Rows {
		for _, c := range t.Cols {
			cell := t.Cells[r][c]
			if cell.Skipped || cell.PaperNA {
				continue
			}
			total++
			if cell.Agrees(factor) {
				matched++
			}
		}
	}
	return
}

// Package report renders the experiment harness's outputs in
// terminal-and-file-friendly forms: aligned text tables (the paper's
// Tables and the extension's latency/regret tables), CSV and ASCII-chart
// series data (the paper's Figures, λ-vs-p99 curves, regret-vs-noise
// sweeps), text Gantt charts and per-processor utilisation summaries of
// individual schedules, self-contained HTML reports with inline-SVG bar
// charts, and Chrome-trace JSON for chrome://tracing.
//
// Everything writes to an io.Writer and is deterministic for a given
// input, so the sweep and experiment CLIs can diff their own output
// byte-for-byte across reruns (CI does exactly that).
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are free-text lines printed under the table.
	Notes []string
}

// AddRow appends a row; it must match the header width.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Headers) {
		return fmt.Errorf("report: row has %d cells, header has %d", len(cells), len(t.Headers))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAddRow is AddRow, panicking on width mismatch (a programming error).
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Render writes the table as aligned monospace text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString(n + "\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV writes headers then rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Ms formats a millisecond quantity the way the paper's tables do:
// integral values without decimals, otherwise three decimals. The
// integrality test compares a remainder against the constant zero, which
// is exact, rather than round-tripping through int64.
func Ms(v float64) string {
	if math.Mod(v, 1) == 0 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// Pct formats a percentage with three decimals, as in the paper's Table 13.
func Pct(v float64) string { return fmt.Sprintf("%.3f", v) }

// The result table: the one value every experiment result renders to.

package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/stats"
)

// Table is one experiment result: a titled table of cells and the
// summary notes printed below it. Both outputs render from it: the text
// report (String, through stats.Table) and the flat metrics map of
// cmd/experiments -json (Metrics), which holds every keyed Val.
//
// Metric key conventions, which the golden schema test pins:
//
//   - keys are snake_case metric names;
//   - per-label values append the label after a dot, e.g.
//     "median_cycles.Stock Android" or "norm_pct.Shared PTP.Email";
//   - percentages carry a _pct suffix (or a pct_ prefix inherited from
//     the figure), raw counts and cycles are unsuffixed.
//
// Non-finite values (NaN, Inf) are left out of the metrics: they cannot
// be represented in JSON, and an absent key is more honest than a
// sentinel.
type Table struct {
	Title  string
	Header []string
	Rows   [][]Cell
	Notes  []Cell
}

// Cell is one table entry or one note line: Format as fmt renders it
// over Vals. A Cell without Vals is literal text.
type Cell struct {
	Format string
	Vals   []Val
}

// Val is one number of a result. As a fmt argument it prints its text
// value: %v as stats.F does, every other verb as for a float64.
type Val struct {
	// V is the measured value, as -json reports it.
	V float64
	// Key is V's -json metric key; empty shows V in the text only.
	Key string
	// Unit converts V and Paper for the text, whose unit may differ
	// from the JSON's; nil prints them as they are.
	Unit func(float64) float64
	// Paper is the paper's value for V, in V's unit; nil when the
	// paper gives none.
	Paper *float64
	// showPaper makes the text print Paper instead of V (see paperOf).
	showPaper bool
}

// withPaper returns v carrying the paper's value p.
func (v Val) withPaper(p float64) Val {
	v.Paper = &p
	return v
}

// paperOf returns a Val whose text is v's paper value and which adds
// nothing to the JSON.
func paperOf(v Val) Val {
	v.Key, v.showPaper = "", true
	return v
}

// Format implements fmt.Formatter.
func (v Val) Format(f fmt.State, verb rune) {
	x := v.V
	if v.showPaper {
		x = *v.Paper
	}
	if v.Unit != nil {
		x = v.Unit(x)
	}
	if verb == 'v' {
		io.WriteString(f, stats.F(x))
		return
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), x)
}

func (c Cell) text() string {
	if len(c.Vals) == 0 {
		return c.Format
	}
	args := make([]any, len(c.Vals))
	for i, v := range c.Vals {
		args[i] = v
	}
	return fmt.Sprintf(c.Format, args...)
}

// String renders the text report: the table, then one line per note.
func (t *Table) String() string {
	st := stats.NewTable(t.Title, t.Header...)
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.text()
		}
		st.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString(st.String())
	for _, n := range t.Notes {
		b.WriteString(n.text())
		b.WriteByte('\n')
	}
	return b.String()
}

// Metrics returns the -json metrics: every keyed, finite value of the
// rows and notes.
func (t *Table) Metrics() map[string]float64 {
	m := make(map[string]float64)
	for _, c := range append(slices.Concat(t.Rows...), t.Notes...) {
		for _, v := range c.Vals {
			if v.Key != "" && !math.IsNaN(v.V) && !math.IsInf(v.V, 0) {
				m[v.Key] = v.V
			}
		}
	}
	return m
}

// The text units of scaled values. Each is one exact operation: x/1e6
// and x*1e-6, or 100*x and x/0.01, can round to different floats and
// so print differently.
func mega(x float64) float64     { return x / 1e6 }
func hundreds(x float64) float64 { return x / 100 }
func mib(x float64) float64      { return x / (1 << 20) }
func percent(x float64) float64  { return 100 * x }

func newTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

func (t *Table) row(cells ...Cell) { t.Rows = append(t.Rows, cells) }

func (t *Table) note(format string, vals ...Val) {
	t.Notes = append(t.Notes, cell(format, vals...))
}

// text is a literal cell.
func text(s string) Cell { return Cell{Format: s} }

func cell(format string, vals ...Val) Cell { return Cell{Format: format, Vals: vals} }

// numCell, pctCell and countCell are one keyed value printed as
// stats.F, as a percentage with one decimal and as an integer.
func numCell(x float64, key string) Cell { return cell("%v", Val{V: x, Key: key}) }

func pctCell(x float64, key string) Cell { return cell("%.1f%%", Val{V: x, Key: key}) }

func countCell[T int | uint64](n T, key string) Cell {
	return cell("%.0f", Val{V: float64(n), Key: key})
}

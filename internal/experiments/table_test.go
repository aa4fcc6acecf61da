package experiments

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestTableRendersBothOutputs checks the two renderings of one Table:
// the text prints unit-converted values, paper values and literal
// cells; the metrics hold exactly the keyed, finite, unconverted values.
func TestTableRendersBothOutputs(t *testing.T) {
	tab := newTable("T", "Name", "Cycles", "Pair", "Paper")
	cyc := Val{V: 2.5e6, Key: "cycles.a", Unit: mega}.withPaper(3e6)
	tab.row(text("a 100%"), cell("%v", cyc),
		cell("%.1f (%.1f)", Val{V: 1, Key: "x.a"}, Val{V: 2, Key: "y.a"}), cell("%v", paperOf(cyc)))
	tab.row(text("b"), numCell(math.NaN(), "cycles.b"), countCell(7, "n.b"), cell("%+.1f%%", Val{V: -3}))
	tab.note("%.0f of %.1fx (paper: %gx)", Val{V: 4, Key: "count"}, cyc, paperOf(cyc))

	want := "T\n" +
		"Name    Cycles  Pair       Paper\n" +
		"------  ------  ---------  -----\n" +
		"a 100%  2.50    1.0 (2.0)  3.00 \n" +
		"b       NaN     7          -3.0%\n" +
		"4 of 2.5x (paper: 3x)\n"
	if got := tab.String(); got != want {
		t.Errorf("text:\n%s\nwant:\n%s", got, want)
	}
	wantMetrics := map[string]float64{"cycles.a": 2.5e6, "x.a": 1, "y.a": 2, "n.b": 7, "count": 4}
	if got := tab.Metrics(); !reflect.DeepEqual(got, wantMetrics) {
		t.Errorf("metrics = %v, want %v", got, wantMetrics)
	}
}

// TestPaperValuesAreCellData requires every note that quotes the paper,
// and every cell of a Paper column, to print a Val's paper value: each
// reference number the text shows is data code can read.
func TestPaperValuesAreCellData(t *testing.T) {
	for _, e := range Registry()[:15] { // the paper's tables and figures
		tab, err := e.Run(session)
		if err != nil {
			t.Fatal(err)
		}
		var quoting []Cell
		for _, n := range tab.Notes {
			if strings.Contains(n.Format, "(paper:") {
				quoting = append(quoting, n)
			}
		}
		for i, h := range tab.Header {
			if strings.HasPrefix(h, "Paper") {
				for _, row := range tab.Rows {
					quoting = append(quoting, row[i])
				}
			}
		}
		for _, c := range quoting {
			if !slices.ContainsFunc(c.Vals, func(v Val) bool { return v.showPaper }) {
				t.Errorf("%s: %q prints no Val's paper value", e.Name, c.Format)
			}
		}
	}
}

// Package stats provides the small statistical toolkit the evaluation
// uses: five-number summaries for the box-and-whisker plots of Figures 7
// and 8, cumulative distribution functions for Figure 4, normalization
// helpers, and plain-text table rendering for regenerating the paper's
// tables and figures as text.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// FiveNum is a five-number summary: the box-and-whisker statistics used
// in Figures 7 and 8.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary of xs. An empty sample
// yields the zero FiveNum; callers that require data should check the
// input length themselves.
func Summarize(xs []float64) FiveNum {
	if len(xs) == 0 {
		return FiveNum{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return FiveNum{
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of sorted, using linear
// interpolation between order statistics (type-7, the R default). An empty
// sample yields 0; an out-of-range q still panics, as that is a caller
// bug rather than a data condition.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (f FiveNum) String() string {
	return fmt.Sprintf("min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g",
		f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs, or 0 for an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CDF is an empirical cumulative distribution over integer-valued
// observations, as in Figure 4 (number of untouched 4KB pages within a
// 64KB page).
type CDF struct {
	counts map[int]int
	total  int
}

// NewCDF creates an empty distribution.
func NewCDF() *CDF { return &CDF{counts: make(map[int]int)} }

// Add records one observation.
func (c *CDF) Add(v int) {
	c.counts[v]++
	c.total++
}

// Total returns the number of observations.
func (c *CDF) Total() int { return c.total }

// At returns P(X <= v).
func (c *CDF) At(v int) float64 {
	if c.total == 0 {
		return 0
	}
	n := 0
	for k, cnt := range c.counts {
		if k <= v {
			n += cnt
		}
	}
	return float64(n) / float64(c.total)
}

// Tail returns P(X >= v).
func (c *CDF) Tail(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return 1 - c.At(v-1)
}

// Values returns the observed values in ascending order.
func (c *CDF) Values() []int {
	vs := make([]int, 0, len(c.counts))
	for k := range c.counts {
		vs = append(vs, k)
	}
	sort.Ints(vs)
	return vs
}

// PctChange returns the percent change from base to x: negative means a
// reduction.
func PctChange(base, x float64) float64 {
	if base == 0 {
		panic("stats: PctChange with zero base")
	}
	return 100 * (x - base) / base
}

// Normalize returns x/base as a percentage.
func Normalize(base, x float64) float64 {
	if base == 0 {
		panic("stats: Normalize with zero base")
	}
	return 100 * x / base
}

// Table renders aligned plain-text tables for the experiment drivers.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float with sensible precision for table cells.
func F(x float64) string {
	switch {
	case math.Abs(x) >= 1000:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

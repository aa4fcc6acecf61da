package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	f := Summarize([]float64{1, 2, 3, 4, 5})
	if f.Min != 1 || f.Max != 5 || f.Median != 3 || f.Q1 != 2 || f.Q3 != 4 {
		t.Errorf("FiveNum = %+v", f)
	}
}

func TestSummarizeSingle(t *testing.T) {
	f := Summarize([]float64{7})
	if f.Min != 7 || f.Q1 != 7 || f.Median != 7 || f.Q3 != 7 || f.Max != 7 {
		t.Errorf("FiveNum = %+v", f)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestEmptyInputsReturnZeroValues(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"Quantile(nil, 0.5)", Quantile(nil, 0.5), 0},
		{"Quantile(empty, 0)", Quantile([]float64{}, 0), 0},
		{"Quantile(empty, 1)", Quantile([]float64{}, 1), 0},
		{"Mean(nil)", Mean(nil), 0},
		{"Mean(empty)", Mean([]float64{}), 0},
		{"Min(nil)", Min(nil), 0},
		{"Min(empty)", Min([]float64{}), 0},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for _, xs := range [][]float64{nil, {}} {
		if f := Summarize(xs); f != (FiveNum{}) {
			t.Errorf("Summarize(%v) = %+v, want zero FiveNum", xs, f)
		}
	}
}

func TestQuantileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile with q out of [0,1] should panic")
		}
	}()
	Quantile([]float64{1, 2}, 1.5)
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if got := Quantile(s, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := Quantile(s, 0.25); got != 2.5 {
		t.Errorf("Quantile(0.25) = %v, want 2.5", got)
	}
}

func TestFiveNumOrderingProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		f := Summarize(xs)
		return f.Min <= f.Q1 && f.Q1 <= f.Median && f.Median <= f.Q3 && f.Q3 <= f.Max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMin(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Min([]float64{3, 1, 2}); got != 1 {
		t.Errorf("Min = %v", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF()
	for _, v := range []int{0, 1, 1, 2, 15} {
		c.Add(v)
	}
	if c.Total() != 5 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.At(1); got != 0.6 {
		t.Errorf("At(1) = %v, want 0.6", got)
	}
	if got := c.At(15); got != 1 {
		t.Errorf("At(15) = %v, want 1", got)
	}
	if got := c.Tail(2); got != 0.4 {
		t.Errorf("Tail(2) = %v, want 0.4", got)
	}
	if got := c.Values(); len(got) != 4 || !sort.IntsAreSorted(got) {
		t.Errorf("Values = %v", got)
	}
}

func TestCDFEmptySafe(t *testing.T) {
	c := NewCDF()
	if c.At(3) != 0 || c.Tail(3) != 0 {
		t.Error("empty CDF should report 0 everywhere")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	prop := func(vals []uint8) bool {
		c := NewCDF()
		for _, v := range vals {
			c.Add(int(v) % 16)
		}
		prev := 0.0
		for v := 0; v <= 16; v++ {
			p := c.At(v)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return len(vals) == 0 || prev == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPctChangeAndNormalize(t *testing.T) {
	if got := PctChange(100, 54); got != -46 {
		t.Errorf("PctChange = %v, want -46", got)
	}
	if got := Normalize(200, 100); got != 50 {
		t.Errorf("Normalize = %v, want 50", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Bench", "Value")
	tb.AddRow("fork", "1.4")
	tb.AddRow("launch-with-long-name", "10")
	out := tb.String()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "Bench") {
		t.Errorf("missing title/header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns are aligned: every data line has the value column at the
	// same offset.
	idx := strings.Index(lines[1], "Value")
	if !strings.HasPrefix(lines[3][idx:], "1.4") || !strings.HasPrefix(lines[4][idx:], "10") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(12345) != "12345" {
		t.Errorf("F(12345) = %q", F(12345))
	}
	if F(12.34) != "12.3" {
		t.Errorf("F(12.34) = %q", F(12.34))
	}
	if F(1.234) != "1.23" {
		t.Errorf("F(1.234) = %q", F(1.234))
	}
}

// Package stats provides the small text-reporting helpers the experiment
// drivers and CLIs use to print paper-style tables and curve data.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells beyond the header count are dropped.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Stream is a streaming (single-pass, O(1) memory) aggregator of float64
// observations: count, sum, running mean, min and max. The zero value
// is ready to use. It is the aggregation sink for campaign runs, where
// trial results arrive one at a time in completion order and nothing
// may depend on buffering them all.
type Stream struct {
	n        int
	mean     float64
	sum      float64
	min, max float64
}

// Add folds one observation into the aggregate.
func (s *Stream) Add(v float64) {
	s.n++
	s.sum += v
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.mean += (v - s.mean) / float64(s.n)
}

// N returns the observation count.
func (s *Stream) N() int { return s.n }

// Sum returns the running total.
func (s *Stream) Sum() float64 { return s.sum }

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 { return s.max }

// String summarises the aggregate for progress reports.
func (s *Stream) String() string {
	if s.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s min=%s max=%s", s.n, F(s.mean, 3), F(s.min, 3), F(s.max, 3))
}

// F formats a float with the given precision, using scientific notation
// for very small nonzero magnitudes.
func F(v float64, prec int) string {
	if v != 0 && v < 1e-3 && v > -1e-3 {
		return fmt.Sprintf("%.*e", prec, v)
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// Pct formats a ratio as a percentage string.
func Pct(ratio float64) string {
	return fmt.Sprintf("%.1f%%", 100*ratio)
}

package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("bee", "22", "extra-dropped")
	tb.Add("c") // short row padded
	out := tb.String()

	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("bad header: %q", lines[1])
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[3], "1") {
		t.Errorf("bad row: %q", lines[3])
	}
	if strings.Contains(out, "extra-dropped") {
		t.Error("overflow cell not dropped")
	}
	// All lines align to the same width per column: the separator row
	// must be at least as wide as the longest cell.
	if len(lines[2]) < len(lines[3]) {
		t.Errorf("separator narrower than data: %q vs %q", lines[2], lines[3])
	}
}

func TestF(t *testing.T) {
	cases := []struct {
		v    float64
		prec int
		want string
	}{
		{1.23456, 2, "1.23"},
		{0, 3, "0.000"},
		{1e-6, 1, "1.0e-06"},
		{-5e-5, 1, "-5.0e-05"},
		{100, 0, "100"},
	}
	for _, c := range cases {
		if got := F(c.v, c.prec); got != c.want {
			t.Errorf("F(%g, %d) = %q, want %q", c.v, c.prec, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.305); got != "30.5%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestStream(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.String() != "n=0" {
		t.Fatalf("zero stream: %+v", s)
	}
	for _, v := range []float64{4, 2, 8, 2} {
		s.Add(v)
	}
	if s.N() != 4 || s.Sum() != 16 || s.Max() != 8 {
		t.Errorf("aggregates: n=%d sum=%g max=%g", s.N(), s.Sum(), s.Max())
	}
	if got, want := s.String(), "n=4 mean=4.000 min=2.000 max=8.000"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 2)
	tb.AddRow("gamma", "x")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name ") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(out, "alpha  1.5") {
		t.Errorf("row misaligned:\n%s", out)
	}
	if len(tb.rows) != 3 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1:        "1",
		1.5:      "1.5",
		1.25:     "1.25",
		1.234567: "1.235",
		-2:       "-2",
		0:        "0",
	}
	for v, want := range cases {
		if got := trimFloat(v); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix("heat", []string{"r1", "r2"}, []string{"c1", "c2"})
	m.CornerTag = "rows"
	m.Set(0, 0, 1.0)
	m.Set(1, 1, "x")
	out := m.String()
	if !strings.Contains(out, "rows") || !strings.Contains(out, "c2") {
		t.Errorf("matrix header wrong:\n%s", out)
	}
	if m.Get(0, 0) != "1" || m.Get(1, 1) != "x" {
		t.Errorf("Get = %q, %q", m.Get(0, 0), m.Get(1, 1))
	}
	if m.Get(0, 1) != "" {
		t.Error("unset cell should be empty")
	}
	// Unset cells render as a dash.
	if !strings.Contains(out, "-") {
		t.Errorf("unset cell should render as dash:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Fmt1(1.26) != "1.3" || Fmt2(1.267) != "1.27" {
		t.Error("fixed formatters wrong")
	}
	cases := map[float64]string{
		1e3:   "1K",
		1e4:   "10K",
		1e6:   "1M",
		2.5e6: "2.5M",
		1e9:   "1B",
		500:   "500",
	}
	for v, want := range cases {
		if got := FmtSI(v); got != want {
			t.Errorf("FmtSI(%v) = %q, want %q", v, got, want)
		}
	}
}

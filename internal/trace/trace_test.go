package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 0.25)
	tb.AddRow("gamma", 12)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Fatal("header missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Fatal("row content missing")
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(1.0)
	tb.AddRow(0.123456)
	tb.AddRow(float32(2.5))
	tb.AddRow(0.0)
	if tb.Rows[0][0] != "1" {
		t.Fatalf("1.0 formatted as %q", tb.Rows[0][0])
	}
	if tb.Rows[1][0] != "0.1235" {
		t.Fatalf("0.123456 formatted as %q", tb.Rows[1][0])
	}
	if tb.Rows[2][0] != "2.5" {
		t.Fatalf("2.5 formatted as %q", tb.Rows[2][0])
	}
	if tb.Rows[3][0] != "0" {
		t.Fatalf("0.0 formatted as %q", tb.Rows[3][0])
	}
}

func TestTableRunePadding(t *testing.T) {
	tb := NewTable("", "configuration", "spread")
	tb.AddRow("global δ=1", 132)
	tb.AddRow("global d=1", 7)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// The value column starts at the same rune offset on every line,
	// whatever the byte width of the cells before it.
	col := strings.Index(lines[0], "spread")
	for _, ln := range lines[2:] {
		if got := len([]rune(ln[:strings.LastIndex(ln, "  ")+2])); got != col {
			t.Errorf("row %q: value column at rune %d, header at %d", ln, got, col)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "c")
	tb.AddRow("x")
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(buf.String(), "#") {
		t.Fatal("empty title should not emit a title line")
	}
}

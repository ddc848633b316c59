package report

import (
	"bytes"
	"strings"
	"testing"

	"govdns/internal/stats"
)

func TestTableWrite(t *testing.T) {
	tbl := NewTable("Demo", "name", "count", "pct")
	tbl.AddRow("alpha", 10, 12.345)
	tbl.AddRow("beta-longer", 2, 0.5)
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "beta-longer") {
		t.Errorf("output missing content:\n%s", out)
	}
	if !strings.Contains(out, "12.3") {
		t.Errorf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow(`with "quote"`, "x,y")
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"with \"\"quote\"\"\",\"x,y\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Bars")
	c.Add("one", 1)
	c.Add("two", 2)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	oneBar := strings.Count(lines[1], "#")
	twoBar := strings.Count(lines[2], "#")
	if twoBar != 2*oneBar {
		t.Errorf("bar scaling wrong: %d vs %d", oneBar, twoBar)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := NewBarChart("Empty")
	c.Add("zero", 0)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#") {
		t.Error("zero value produced a bar")
	}
}

func TestWriteCDF(t *testing.T) {
	points := stats.HistCDF([]int{0, 1, 2, 0, 1}) // the values 1, 2, 2, 4
	var buf bytes.Buffer
	if err := WriteCDF(&buf, "CDF", points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.0000") {
		t.Errorf("CDF output:\n%s", buf.String())
	}
}

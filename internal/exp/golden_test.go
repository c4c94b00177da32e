package exp

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// renderPaperTables is what `go run ./cmd/pardis-bench` prints with no flag:
// Table 1, Table 2, the uneven-split check and Figure 4 on PaperPlatform.
func renderPaperTables(t *testing.T) string {
	t.Helper()
	p := PaperPlatform()
	rows1, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	even, uneven, err := UnevenSplit(p)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatTable1(rows1) + "\n" + FormatTable2(rows2) + "\n")
	fmt.Fprintf(&b, "Uneven split check (§3.3, c=3 s=5, %d doubles):\n", PaperElems)
	fmt.Fprintf(&b, "  even    total %7.1f ms\n", even.Total*1e3)
	fmt.Fprintf(&b, "  uneven  total %7.1f ms (ratio %.2f — \"of comparable efficiency\")\n\n",
		uneven.Total*1e3, uneven.Total/even.Total)
	b.WriteString(FormatFigure4(pts, Figure4Client, Figure4Server))
	return b.String()
}

// goldenCells reads the data rows of one block of the golden ("Table 1",
// "Table 2", "Figure 4"): the numeric fields of every line with a '|' behind
// the block's heading, up to the next blank line, keyed by the fields before
// the bar joined with a space ("4 8" for c=4 s=8, "1000" for a length).
func goldenCells(t *testing.T, golden, block string) map[string][]string {
	t.Helper()
	_, rest, ok := strings.Cut(golden, block+" — ")
	if !ok {
		t.Fatalf("the golden has no %q block", block)
	}
	rest, _, _ = strings.Cut(rest, "\n\n")
	cells := map[string][]string{}
	for _, line := range strings.Split(rest, "\n")[2:] { // the heading's tail and the column names
		key, vals, ok := strings.Cut(line, " | ")
		if !ok {
			continue // a separator
		}
		cells[strings.Join(strings.Fields(key), " ")] = strings.Fields(strings.ReplaceAll(vals, "MB/s", ""))
	}
	return cells
}

// docTables returns the rows of every markdown table of EXPERIMENTS.md that
// follows a "Simulated reproduction" line, in order, without the two heading
// lines.
func docTables(doc string) [][]string {
	var tables [][]string
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "Simulated reproduction") {
			continue
		}
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "|"); i++ {
		}
		var rows []string
		for ; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			rows = append(rows, lines[i])
		}
		tables = append(tables, rows[2:])
	}
	return tables
}

// TestPaperTablesGolden pins every cell of the reproduction. The golden was
// written by `go run ./cmd/pardis-bench` at the commit before the simulated
// invocations became an interpreter of dist.Schedule, so it is the hand-written
// re-enactments' output, and EXPERIMENTS.md may quote no other number.
func TestPaperTablesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/paper_tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	if got := renderPaperTables(t); got != golden {
		t.Fatalf("the reproduction moved.\n--- got ---\n%s\n--- golden ---\n%s", got, golden)
	}

	t1, t2, f4 := goldenCells(t, golden, "Table 1"), goldenCells(t, golden, "Table 2"), goldenCells(t, golden, "Figure 4")
	var want [3][]string
	for _, c := range Table1ClientCounts { // columns: total gather pack send recvunp scatter
		row := fmt.Sprintf("| %d |", c)
		for _, s := range Table1ServerCounts {
			v := t1[fmt.Sprintf("%d %d", c, s)]
			row += fmt.Sprintf(" %s | %s | %s |", v[0], v[1], v[5])
		}
		want[0] = append(want[0], row)
	}
	for _, c := range Table2ClientCounts { // columns: total pack send recvunp barrier
		row := fmt.Sprintf("| %d |", c)
		for _, s := range Table2ServerCounts {
			v := t2[fmt.Sprintf("%d %d", c, s)]
			row += fmt.Sprintf(" %s / %s |", v[0], v[4])
		}
		want[1] = append(want[1], row)
	}
	for k, n := range Figure4Lengths {
		length := "10"
		if k > 0 {
			length = fmt.Sprintf("10^%d", k+1)
		}
		v := f4[fmt.Sprint(n)]
		want[2] = append(want[2], fmt.Sprintf("| %s | %s | %s |", length, v[0], v[1]))
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := docTables(string(doc))
	if len(got) != len(want) {
		t.Fatalf("EXPERIMENTS.md has %d \"Simulated reproduction\" tables, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("EXPERIMENTS.md, simulated table %d:\n%s\nthe golden says:\n%s", i+1, strings.Join(got[i], "\n"), strings.Join(want[i], "\n"))
		}
	}
	// The uneven-split sentence quotes the golden's two totals and their ratio.
	_, rest, _ := strings.Cut(golden, "Uneven split check")
	f := strings.Fields(rest) // … even total 223.0 ms uneven total 242.0 ms (ratio 1.09 …
	at := slices.Index(f, "even")
	quote := fmt.Sprintf("even %s ms, uneven %s ms — **ratio %s,", f[at+2], f[at+6], f[at+9])
	if !strings.Contains(string(doc), quote) {
		t.Errorf("EXPERIMENTS.md does not say %q", quote)
	}
}

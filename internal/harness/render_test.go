package harness

import (
	"strings"
	"testing"

	"tracepre/internal/stats"
)

func sampleSpecs() []TableSpec {
	return []TableSpec{
		{
			Title:   "first",
			Headers: []string{"bench", "miss/KI"},
			Rows: [][]any{
				{"compress", 12.345678},
				{"li", 7.0},
			},
			BlankAfter: true,
		},
		{
			Title:   "second",
			Headers: []string{"k", "v"},
			Rows:    [][]any{{"n", 3}},
			Footer:  "VERDICT\n",
		},
	}
}

func TestRenderASCIIMatchesStatsTable(t *testing.T) {
	specs := sampleSpecs()
	want := func() string {
		t1 := stats.NewTable("first", "bench", "miss/KI")
		t1.AddRow("compress", 12.345678)
		t1.AddRow("li", 7.0)
		t2 := stats.NewTable("second", "k", "v")
		t2.AddRow("n", 3)
		return t1.String() + "\n" + t2.String() + "VERDICT\n"
	}()
	if got := RenderASCII(specs); got != want {
		t.Errorf("RenderASCII mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderCSV(t *testing.T) {
	got := RenderCSV(sampleSpecs())
	// Comment titles, full-precision floats (not the ASCII %.2f), and a
	// blank line separating tables.
	for _, w := range []string{"# first\n", "bench,miss/KI\ncompress,12.345678\nli,7\n",
		"\n# second\nk,v\nn,3\n"} {
		if !strings.Contains(got, w) {
			t.Errorf("CSV output missing %q:\n%s", w, got)
		}
	}
}

package harness

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"tracepre/internal/stats"
)

// TableSpec is one renderer-independent table: a title, column
// headers and rows of raw values. Experiment results produce
// TableSpecs; the renderers below turn them into ASCII (byte-identical
// to the paper tables the repo has always emitted) or CSV.
type TableSpec struct {
	Title   string
	Headers []string
	Rows    [][]any
	// BlankAfter emits a blank separator line after the table in ASCII
	// output (between the per-benchmark panels of Figure 5, between
	// Tables 1, 2 and 3).
	BlankAfter bool
	// Footer is appended verbatim after the table (and separator) in
	// ASCII output — the sensitivity study's verdict line. CSV omits
	// it.
	Footer string
}

// Tabler is implemented by every experiment result: the renderer
// contract. TableSpecs returns the result's tables in presentation
// order.
type Tabler interface {
	TableSpecs() []TableSpec
}

// RenderASCII renders the specs as aligned plain-text tables, the
// repo's historical format (stats.Table): floats as %.2f, everything
// else as %v.
func RenderASCII(specs []TableSpec) string {
	var b strings.Builder
	for _, s := range specs {
		t := stats.NewTable(s.Title, s.Headers...)
		for _, row := range s.Rows {
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		if s.BlankAfter {
			b.WriteByte('\n')
		}
		b.WriteString(s.Footer)
	}
	return b.String()
}

// RenderCSV renders the specs as CSV: per table a `# title` comment
// line, a header record and the data records, with a blank line
// between tables. Floats keep full precision (unlike the ASCII
// renderer's fixed two decimals).
func RenderCSV(specs []TableSpec) string {
	var b strings.Builder
	for i, s := range specs {
		if i > 0 {
			b.WriteByte('\n')
		}
		if s.Title != "" {
			fmt.Fprintf(&b, "# %s\n", s.Title)
		}
		w := csv.NewWriter(&b)
		if len(s.Headers) > 0 {
			w.Write(s.Headers)
		}
		for _, row := range s.Rows {
			rec := make([]string, len(row))
			for j, c := range row {
				rec[j] = csvCell(c)
			}
			w.Write(rec)
		}
		w.Flush()
	}
	return b.String()
}

// csvCell formats one value for CSV output.
func csvCell(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

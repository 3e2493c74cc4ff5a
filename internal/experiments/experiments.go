// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§5). Each experiment is registered under the paper's
// identifier (fig2 … fig13, table1, table2), runs at either of two
// scales — "quick" (CI-sized, used by the benchmark harness) or "paper"
// (the publication parameters) — and emits the same rows/series the paper
// reports as aligned text tables plus optional CSV files.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Scale selects experiment sizing.
type Scale string

const (
	// Quick shrinks datasets, forests and grids to run in seconds.
	Quick Scale = "quick"
	// Paper uses the publication's parameters.
	Paper Scale = "paper"
)

// Params configures one experiment run.
type Params struct {
	Scale  Scale
	Seed   int64
	OutDir string // when non-empty, tables and series are also dumped as CSV
	// Family restricts family-aware experiments (extra-families) to a
	// comma-separated subset of the explainer families (core.Families());
	// empty means all of them. Experiments that fit a single fixed surrogate
	// ignore it.
	Family string
	// Ctx carries the run's cancellation/deadline context; nil means
	// context.Background(). Use Context() to read it.
	Ctx context.Context
}

// Context returns the run's context, defaulting to Background so
// experiments written before deadline support keep working unchanged.
func (p Params) Context() context.Context {
	if p.Ctx == nil {
		return context.Background()
	}
	return p.Ctx
}

func (p Params) withDefaults() Params {
	if p.Scale == "" {
		p.Scale = Quick
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Table is one table of results (rows of formatted cells).
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Series is one plotted line/scatter of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Tables []Table
	Series []Series
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params) (*Report, error)
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Toy additive dataset fitted by a GAM", Run: RunFig2},
		{ID: "fig3", Title: "Sampling strategies on a sigmoid feature's thresholds", Run: RunFig3},
		{ID: "fig4", Title: "GEF component reconstruction on D'", Run: RunFig4},
		{ID: "fig5", Title: "RMSE vs K per sampling strategy on D'", Run: RunFig5},
		{ID: "fig6", Title: "Interaction detection AP across interaction sets", Run: RunFig6},
		{ID: "table1", Title: "AP summary per interaction strategy (+ Welch's t)", Run: RunTable1},
		{ID: "table2", Title: "R² fidelity of forest and GAM on D' and D''", Run: RunTable2},
		{ID: "fig7", Title: "Superconductivity: RMSE grid over |F'| × |F''|", Run: RunFig7},
		{ID: "fig8", Title: "Superconductivity: RMSE vs K per sampling strategy", Run: RunFig8},
		{ID: "fig9", Title: "Superconductivity: GEF splines vs SHAP dependence", Run: RunFig9},
		{ID: "fig10", Title: "Census: GEF splines vs SHAP dependence", Run: RunFig10},
		{ID: "fig11", Title: "Superconductivity: local GEF explanation", Run: RunFig11},
		{ID: "fig12", Title: "Superconductivity: local SHAP explanation", Run: RunFig12},
		{ID: "fig13", Title: "Superconductivity: local LIME explanation", Run: RunFig13},
		// Extensions beyond the paper (see DESIGN.md ablations).
		{ID: "extra-surrogates", Title: "GEF GAM vs distilled-tree surrogate fidelity", Run: RunExtraSurrogates},
		{ID: "extra-auto", Title: "AutoExplain component search trace", Run: RunExtraAuto},
		{ID: "extra-engine", Title: "Staged engine cold vs warm artifact-cache reuse", Run: RunExtraEngine},
		{ID: "extra-families", Title: "Explainer families: fidelity/latency across surrogates", Run: RunExtraFamilies},
		{ID: "extra-rf", Title: "GEF applied to a Random Forest", Run: RunExtraRandomForest},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// errWriter tracks the first error of a sequence of writes so report
// rendering fails loudly instead of producing silently truncated
// tables (the paper's numbers must not be reproduced from partial
// output).
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// Render writes the report as aligned text to w and, when p.OutDir is
// set, dumps each table and series as a CSV file. It returns the first
// write error.
func (r *Report) Render(w io.Writer, outDir string) error {
	ew := &errWriter{w: w}
	ew.printf("== %s — %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		ew.printf("   %s\n", n)
	}
	for _, t := range r.Tables {
		ew.printf("\n-- %s --\n", t.Name)
		writeAligned(ew, t)
		if outDir != "" {
			if err := writeTableCSV(outDir, r.ID, t); err != nil {
				return err
			}
		}
	}
	for _, s := range r.Series {
		if outDir != "" {
			if err := writeSeriesCSV(outDir, r.ID, s); err != nil {
				return err
			}
		}
	}
	if len(r.Series) > 0 {
		ew.printf("\n-- series --\n")
		for _, s := range r.Series {
			ew.printf("%-40s %d points", s.Name, len(s.X))
			if n := len(s.Y); n > 0 {
				ew.printf("  (y: first %.4g, last %.4g)", s.Y[0], s.Y[n-1])
			}
			ew.printf("\n")
		}
	}
	ew.printf("\n")
	return ew.err
}

func writeAligned(ew *errWriter, t Table) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		ew.printf("%s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func writeTableCSV(dir, id string, t Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", id, slug(t.Name)))
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ",") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func writeSeriesCSV(dir, id string, s Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", id, slug(s.Name)))
	var b strings.Builder
	b.WriteString("x,y\n")
	for i := range s.X {
		b.WriteString(ftoa(s.X[i]) + "," + ftoa(s.Y[i]) + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// ftoa formats a float compactly for CSV cells.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// f4 formats with 4 decimals for table cells.
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// f3 formats with 3 decimals (the paper's Table 1/2 precision).
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// itoa formats an int.
func itoa(v int) string { return strconv.Itoa(v) }

// linspace returns n evenly spaced points over [lo, hi].
func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = (lo + hi) / 2
		return out
	}
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryCoversAllPaperResults(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"extra-surrogates", "extra-auto", "extra-engine", "extra-families", "extra-rf"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Error("Lookup(fig5) failed")
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestRenderAlignedAndCSV(t *testing.T) {
	r := &Report{
		ID:    "demo",
		Title: "demo report",
		Notes: []string{"a note"},
		Tables: []Table{{
			Name:   "t",
			Header: []string{"col a", "b"},
			Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		}},
		Series: []Series{{Name: "s1", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := r.Render(&buf, dir); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo report") || !strings.Contains(out, "col a") {
		t.Errorf("render output missing content:\n%s", out)
	}
	// CSV files created.
	if _, err := os.Stat(filepath.Join(dir, "demo_t.csv")); err != nil {
		t.Errorf("table CSV missing: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "demo_s1.csv"))
	if err != nil {
		t.Fatalf("series CSV missing: %v", err)
	}
	if !strings.HasPrefix(string(data), "x,y\n1,3\n") {
		t.Errorf("series CSV content:\n%s", data)
	}
}

// runQuick executes an experiment at quick scale and sanity-checks the
// report shape.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	r, err := e.Run(Params{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Errorf("report ID %q, want %q", r.ID, id)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf, ""); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	return r
}

func TestFig2Quick(t *testing.T) {
	r := runQuick(t, "fig2")
	if len(r.Series) != 4 {
		t.Errorf("fig2 series = %d, want 4 (2 learned + 2 true)", len(r.Series))
	}
	// The learned components must match the generators closely.
	for _, row := range r.Tables[0].Rows {
		rmse := parseF(t, row[1])
		if rmse > 0.15 {
			t.Errorf("component %s RMSE %v too high", row[0], rmse)
		}
	}
}

func TestFig3Quick(t *testing.T) {
	r := runQuick(t, "fig3")
	// One KDE series plus one rug per strategy.
	if len(r.Series) != 6 {
		t.Errorf("fig3 series = %d, want 6", len(r.Series))
	}
	// Density-following strategies concentrate points near the sigmoid
	// jump at 0.5; Equi-Width does not.
	share := map[string]float64{}
	for _, row := range r.Tables[0].Rows {
		share[row[0]] = parseF(t, row[4])
	}
	if share["k-quantile"] <= share["equi-width"] {
		t.Errorf("k-quantile share %v should exceed equi-width %v near the jump",
			share["k-quantile"], share["equi-width"])
	}
	if share["equi-size"] <= share["equi-width"] {
		t.Errorf("equi-size share %v should exceed equi-width %v near the jump",
			share["equi-size"], share["equi-width"])
	}
}

func TestFig4Quick(t *testing.T) {
	r := runQuick(t, "fig4")
	if len(r.Tables[0].Rows) != 5 {
		t.Fatalf("fig4 components = %d, want 5", len(r.Tables[0].Rows))
	}
	// Reconstruction quality: every component within loose tolerance,
	// most within tight tolerance (the paper notes margin artefacts).
	tight := 0
	for _, row := range r.Tables[0].Rows {
		rmse := parseF(t, row[2])
		if rmse > 0.5 {
			t.Errorf("component %s RMSE %v too high", row[0], rmse)
		}
		if rmse < 0.2 {
			tight++
		}
	}
	if tight < 3 {
		t.Errorf("only %d/5 components reconstructed tightly", tight)
	}
}

func TestFig5Quick(t *testing.T) {
	r := runQuick(t, "fig5")
	if len(r.Series) != 4 {
		t.Errorf("fig5 series = %d, want 4 strategies", len(r.Series))
	}
	// Every strategy × K must produce a finite positive RMSE.
	for _, row := range r.Tables[0].Rows {
		rmse := parseF(t, row[2])
		if rmse <= 0 || rmse > 10 {
			t.Errorf("row %v has implausible RMSE", row)
		}
	}
}

func TestFig6Table1Quick(t *testing.T) {
	r := runQuick(t, "fig6")
	if len(r.Series) != 4 {
		t.Fatalf("fig6 series = %d, want 4", len(r.Series))
	}
	for _, s := range r.Series {
		// AP values sorted descending in [0, 1].
		for i, v := range s.Y {
			if v < 0 || v > 1 {
				t.Fatalf("%s AP %v out of range", s.Name, v)
			}
			if i > 0 && v > s.Y[i-1]+1e-12 {
				t.Fatalf("%s not sorted descending", s.Name)
			}
		}
	}
	r1 := runQuick(t, "table1")
	if len(r1.Tables) != 3 {
		t.Fatalf("table1 should have the summary, the Welch table and the bootstrap CIs")
	}
	// Bootstrap CIs bracket the reported means.
	means := map[string]float64{}
	for i, h := range r1.Tables[0].Header[1:] {
		_ = i
		means[strings.ToLower(h)] = 0
	}
	for i, h := range r1.Tables[0].Header[1:] {
		means[strings.ToLower(h)] = parseF(t, r1.Tables[0].Rows[0][i+1])
	}
	for _, row := range r1.Tables[2].Rows {
		lo, hi := parseF(t, row[1]), parseF(t, row[2])
		m := means[strings.ToLower(row[0])]
		if m < lo-1e-9 || m > hi+1e-9 {
			t.Errorf("mean AP %v of %s outside bootstrap CI [%v, %v]", m, row[0], lo, hi)
		}
	}
	// Mean row: all strategies between the paper's min (0.216) floor and 1.
	mean := r1.Tables[0].Rows[0]
	for _, cell := range mean[1:] {
		v := parseF(t, cell)
		if v < 0.15 || v > 1 {
			t.Errorf("mean AP %v implausible", v)
		}
	}
	// Welch p-values in [0, 1].
	for _, row := range r1.Tables[1].Rows {
		pv := parseF(t, row[3])
		if pv < 0 || pv > 1 {
			t.Errorf("Welch p = %v", pv)
		}
	}
}

func TestTable2Quick(t *testing.T) {
	r := runQuick(t, "table2")
	rows := r.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("table2 rows = %d, want 4", len(rows))
	}
	// Forest R² vs y high on both datasets; GAM close behind on D′.
	forestDp := parseF(t, rows[0][3])
	gamDpVsT := parseF(t, rows[1][2])
	gamDpVsY := parseF(t, rows[1][3])
	if forestDp < 0.9 {
		t.Errorf("forest R² on D' = %v", forestDp)
	}
	if gamDpVsT < 0.9 {
		t.Errorf("GAM vs T on D' = %v, want ≥ 0.9 (paper 0.986)", gamDpVsT)
	}
	if gamDpVsY < 0.9 {
		t.Errorf("GAM vs y on D' = %v (paper 0.982)", gamDpVsY)
	}
	// D″ fidelity is allowed to drop (paper: 0.938) but must stay strong.
	gamDppVsT := parseF(t, rows[3][2])
	if gamDppVsT < 0.8 {
		t.Errorf("GAM vs T on D'' = %v, want ≥ 0.8 (paper 0.938)", gamDppVsT)
	}
}

func TestFig7Quick(t *testing.T) {
	r := runQuick(t, "fig7")
	tab := r.Tables[0]
	if len(tab.Rows) != 5 { // quick scale: splines {1,3,5,7,9}
		t.Fatalf("fig7 rows = %d, want 5", len(tab.Rows))
	}
	// More splines must reduce RMSE: compare 1-spline vs 9-spline at 0
	// interactions.
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if last >= first {
		t.Errorf("RMSE with 9 splines (%v) should beat 1 spline (%v)", last, first)
	}
}

func TestFig8Quick(t *testing.T) {
	r := runQuick(t, "fig8")
	if len(r.Series) != 4 {
		t.Errorf("fig8 series = %d, want 4", len(r.Series))
	}
}

func TestFig9Quick(t *testing.T) {
	r := runQuick(t, "fig9")
	if len(r.Tables[0].Rows) == 0 {
		t.Fatal("fig9 produced no splines")
	}
	// The GEF/SHAP consistency note must report a clearly positive
	// correlation (the paper's "explanations are consistent" claim).
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "correlation") {
			found = true
			parts := strings.Fields(n)
			corr := parseF(t, parts[len(parts)-1])
			if corr < 0.5 {
				t.Errorf("GEF-vs-SHAP correlation %v, want ≥ 0.5", corr)
			}
		}
	}
	if !found {
		t.Error("fig9 missing the consistency note")
	}
}

func TestFig10Quick(t *testing.T) {
	r := runQuick(t, "fig10")
	if len(r.Tables[0].Rows) == 0 {
		t.Fatal("fig10 produced no terms")
	}
	// The census logit GAM must reach the committed fidelity on D*
	// (results/quick_output.txt: R² 0.8986); P-IRLS step control that
	// truncates the λ search drops it to ~0.85.
	var r2Found bool
	for _, n := range r.Notes {
		if strings.HasPrefix(n, "fidelity on D*") {
			r2Found = true
			fields := strings.Fields(n)
			if r2 := parseF(t, fields[len(fields)-1]); r2 < 0.89 {
				t.Errorf("fig10 fidelity R² on D* = %v, want ≥ 0.89", r2)
			}
		}
	}
	if !r2Found {
		t.Error("fig10 missing the fidelity-on-D* note")
	}
	// The education-num trend note must be present and positive when the
	// feature is selected.
	for _, n := range r.Notes {
		if strings.Contains(n, "education-num contribution") {
			// Parse "... %.3f at lo → %.3f at hi ..."
			fields := strings.Fields(n)
			vLo := parseF(t, strings.TrimSuffix(fields[2], ","))
			var vHi float64
			for i, tok := range fields {
				if tok == "→" {
					vHi = parseF(t, fields[i+1])
				}
			}
			if vHi <= vLo {
				t.Errorf("education-num trend not positive: %v → %v", vLo, vHi)
			}
		}
	}
}

func TestFig11To13Quick(t *testing.T) {
	r11 := runQuick(t, "fig11")
	if len(r11.Tables[0].Rows) != 7 {
		t.Errorf("fig11 contributions = %d, want 7 terms", len(r11.Tables[0].Rows))
	}
	r12 := runQuick(t, "fig12")
	if len(r12.Tables[0].Rows) != 8 {
		t.Errorf("fig12 waterfall rows = %d, want 8", len(r12.Tables[0].Rows))
	}
	r13 := runQuick(t, "fig13")
	if len(r13.Tables[0].Rows) != 8 {
		t.Errorf("fig13 weight rows = %d, want 8", len(r13.Tables[0].Rows))
	}
	// The three explanations address the same instance: the feature value
	// shown for any shared feature must agree between fig12 and fig13.
	vals12 := map[string]string{}
	for _, row := range r12.Tables[0].Rows {
		vals12[row[0]] = row[1]
	}
	for _, row := range r13.Tables[0].Rows {
		if v, ok := vals12[row[0]]; ok && v != row[1] {
			t.Errorf("feature %s value differs between SHAP (%s) and LIME (%s)", row[0], v, row[1])
		}
	}
}

func TestExtrasQuick(t *testing.T) {
	rs := runQuick(t, "extra-surrogates")
	// Row 0 is the GAM; all tree rows must have lower R².
	gamR2 := parseF(t, rs.Tables[0].Rows[0][3])
	for _, row := range rs.Tables[0].Rows[1:3] { // readable trees (8, 16 leaves)
		if treeR2 := parseF(t, row[3]); treeR2 >= gamR2 {
			t.Errorf("readable tree (%s) R² %v ≥ GAM R² %v", row[1], treeR2, gamR2)
		}
	}

	ra := runQuick(t, "extra-auto")
	if len(ra.Tables[0].Rows) < 2 {
		t.Error("auto trace too short")
	}

	rr := runQuick(t, "extra-rf")
	gamVsT := parseF(t, rr.Tables[0].Rows[1][1])
	if gamVsT < 0.75 {
		t.Errorf("GEF on RF: Γ vs T R² = %v", gamVsT)
	}
}

// TestExtraFamiliesQuick drives the family-comparison experiment at
// quick scale: the three families must appear in presentation order
// (gam, rules, smoother) with measured fidelity, the cross-family cache
// reuse it asserts internally must hold, and the Family filter must
// work.
func TestExtraFamiliesQuick(t *testing.T) {
	e, ok := Lookup("extra-families")
	if !ok {
		t.Fatal("extra-families not registered")
	}
	r, err := e.Run(Params{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatalf("extra-families: %v", err)
	}
	rows := r.Tables[0].Rows
	want := []string{"gam", "rules", "smoother"}
	if len(rows) != len(want) {
		t.Fatalf("comparison table has %d rows, want %d families: %v", len(rows), len(want), rows)
	}
	for i, row := range rows {
		if row[0] != want[i] {
			t.Errorf("row %d is family %s, want %s", i, row[0], want[i])
		}
		if rmse := parseF(t, row[2]); rmse < 0 || rmse != rmse {
			t.Errorf("family %s RMSE %v is not a measurement", row[0], rmse)
		}
	}

	sub, err := e.Run(Params{Scale: Quick, Seed: 1, Family: "gam,rules"})
	if err != nil {
		t.Fatalf("family filter: %v", err)
	}
	if n := len(sub.Tables[0].Rows); n != 2 {
		t.Errorf("filtered run has %d rows, want 2", n)
	}
	if _, err := e.Run(Params{Scale: Quick, Seed: 1, Family: "nope"}); err == nil {
		t.Error("unknown family accepted by the filter")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

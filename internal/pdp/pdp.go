// Package pdp computes one- and two-dimensional partial-dependence
// functions of a forest over a background sample, and Friedman's
// H-statistic built from them — the most expensive of the paper's four
// interaction-detection strategies (§3.4).
//
// Every grid point costs |background| forest evaluations; all of them
// run through the flat structure-of-arrays batch kernels
// (Forest.Flat): the background is cloned once into a scratch
// matrix, each grid point overwrites only the swept feature column(s),
// and one batched traversal evaluates the whole background per point.
// Per-point sums accumulate in background order, so results are bitwise
// identical to the historical row-at-a-time walk.
package pdp

import (
	"fmt"

	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/stats"
)

// Metrics instruments (hoisted; see internal/obs): every PD-grid point
// costs |background| forest evaluations, and H-Stat is quadratic in the
// sample — pdp.forest_evals is the number future sharding PRs must cut.
var (
	mForestEvals = obs.Metrics().Counter("pdp.forest_evals")
	mHStatCalls  = obs.Metrics().Counter("pdp.hstat_calls")
)

// cloneRows deep-copies the background matrix into a scratch the sweep
// can overwrite column-wise.
func cloneRows(background [][]float64) [][]float64 {
	rows := make([][]float64, len(background))
	flat := make([]float64, len(background)*len(background[0]))
	w := len(background[0])
	for i, b := range background {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
		copy(rows[i], b)
	}
	return rows
}

// OneDimAt evaluates the one-dimensional partial-dependence function of
// feature j at each of the given values:
//
//	F_j(v) = (1/|X|) Σ_b f(x_b with x_bj ← v)
//
// The returned values are centred to mean zero over the evaluation
// points, as the H-statistic requires.
func OneDimAt(f *forest.Forest, background [][]float64, j int, values []float64) []float64 {
	if len(background) == 0 {
		panic("pdp: empty background sample")
	}
	mForestEvals.Add(int64(len(values)) * int64(len(background)))
	fl := f.Flat()
	rows := cloneRows(background)
	preds := make([]float64, len(background))
	out := make([]float64, len(values))
	for vi, v := range values {
		for _, row := range rows {
			row[j] = v
		}
		fl.PredictBatchInto(rows, preds)
		var s float64
		for _, p := range preds {
			s += p
		}
		out[vi] = s / float64(len(background))
	}
	center(out)
	return out
}

// TwoDimAt evaluates the two-dimensional partial-dependence function of
// features (i, j) at each paired point (vi[k], vj[k]), centred to mean
// zero.
func TwoDimAt(f *forest.Forest, background [][]float64, i, j int, vi, vj []float64) []float64 {
	if len(vi) != len(vj) {
		panic(fmt.Sprintf("pdp: paired value lengths differ: %d vs %d", len(vi), len(vj)))
	}
	if len(background) == 0 {
		panic("pdp: empty background sample")
	}
	mForestEvals.Add(int64(len(vi)) * int64(len(background)))
	fl := f.Flat()
	rows := cloneRows(background)
	preds := make([]float64, len(background))
	out := make([]float64, len(vi))
	for k := range vi {
		for _, row := range rows {
			row[i] = vi[k]
			row[j] = vj[k]
		}
		fl.PredictBatchInto(rows, preds)
		var s float64
		for _, p := range preds {
			s += p
		}
		out[k] = s / float64(len(background))
	}
	center(out)
	return out
}

// Grid1D evaluates the (uncentred) one-dimensional partial dependence of
// feature j over an explicit grid, for plotting (Figs. 9–10 comparisons).
func Grid1D(f *forest.Forest, background [][]float64, j int, grid []float64) []float64 {
	if len(background) == 0 {
		panic("pdp: empty background sample")
	}
	mForestEvals.Add(int64(len(grid)) * int64(len(background)))
	fl := f.Flat()
	rows := cloneRows(background)
	preds := make([]float64, len(background))
	out := make([]float64, len(grid))
	for gi, v := range grid {
		for _, row := range rows {
			row[j] = v
		}
		fl.PredictBatchInto(rows, preds)
		var s float64
		for _, p := range preds {
			s += p
		}
		out[gi] = s / float64(len(background))
	}
	return out
}

// ICE computes Individual Conditional Expectation curves (Goldstein et
// al., cited by the paper's related work): for each background row b, the
// forest prediction as feature j sweeps the grid while the rest of b is
// held fixed. The partial dependence is the average of these curves;
// heterogeneity across them reveals interactions that PD averages away.
// Returns one curve per background row, each of length len(grid).
func ICE(f *forest.Forest, background [][]float64, j int, grid []float64) [][]float64 {
	if len(background) == 0 {
		panic("pdp: empty background sample")
	}
	mForestEvals.Add(int64(len(grid)) * int64(len(background)))
	fl := f.Flat()
	// Scratch: len(grid) copies of the current background row, the swept
	// column rewritten per row — one batched traversal per curve.
	sweep := make([][]float64, len(grid))
	flat := make([]float64, len(grid)*len(background[0]))
	w := len(background[0])
	for gi := range sweep {
		sweep[gi] = flat[gi*w : (gi+1)*w : (gi+1)*w]
	}
	out := make([][]float64, len(background))
	for bi, b := range background {
		for gi, v := range grid {
			copy(sweep[gi], b)
			sweep[gi][j] = v
		}
		curve := make([]float64, len(grid))
		fl.PredictBatchInto(sweep, curve)
		out[bi] = curve
	}
	return out
}

// CenteredICE returns ICE curves anchored at the first grid point
// (c-ICE), which makes heterogeneity in slopes directly comparable.
//
//lint:ignore obsspan delegates to ICE, which carries the forest-eval instrumentation; centering is a cheap pass
func CenteredICE(f *forest.Forest, background [][]float64, j int, grid []float64) [][]float64 {
	curves := ICE(f, background, j, grid)
	for _, c := range curves {
		base := c[0]
		for i := range c {
			c[i] -= base
		}
	}
	return curves
}

// HStatistic computes Friedman's pairwise H² statistic for features
// (i, j), using sample both as the evaluation points and the background:
//
//	H² = Σ_k [F_ij(x_ki, x_kj) − F_i(x_ki) − F_j(x_kj)]² / Σ_k F_ij²(x_ki, x_kj)
//
// Cost is O(|sample|²) forest evaluations per pair, which is why the paper
// positions Gain-Path as the cheap alternative.
func HStatistic(f *forest.Forest, sample [][]float64, i, j int) float64 {
	n := len(sample)
	if n == 0 {
		panic("pdp: empty sample")
	}
	mHStatCalls.Inc()
	vi := make([]float64, n)
	vj := make([]float64, n)
	for k, x := range sample {
		vi[k] = x[i]
		vj[k] = x[j]
	}
	fi := OneDimAt(f, sample, i, vi)
	fj := OneDimAt(f, sample, j, vj)
	fij := TwoDimAt(f, sample, i, j, vi, vj)
	var num, den float64
	for k := 0; k < n; k++ {
		d := fij[k] - fi[k] - fj[k]
		num += d * d
		den += fij[k] * fij[k]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func center(xs []float64) {
	m := stats.Mean(xs)
	for i := range xs {
		xs[i] -= m
	}
}

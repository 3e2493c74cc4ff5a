// Package rules implements the conclusive-local-rule surrogate family:
// per-prediction reduced conjunctive rules in the spirit of LionForests
// ("Conclusive Local Interpretation Rules for Random Forests", see
// PAPERS.md), adapted to additive gradient-boosted forests. For one
// instance the forest's prediction is re-expressed as a conjunction of
// feature ranges — the intersection of the root-to-leaf path constraints
// of a *reduced* tree set, the smallest prefix (ordered by how far each
// tree's leaf deviates from that tree's mean response) whose prediction
// stays within a tolerance of the full forest. Dropped trees contribute
// their mean, so the reduced prediction is a faithful, bounded
// approximation rather than a truncation.
//
// Unlike the GAM and smoother families the fitted artifact is tiny (a
// compiled forest view plus one tolerance); all per-instance work runs
// at explanation time through the flat-forest kernels and internal/par,
// with the usual bitwise-determinism contract (fixed traversal and
// reduction order at any worker count).
package rules

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
	"gef/internal/robust"
)

// Config controls rule reduction.
type Config struct {
	// Tolerance is the maximum deviation of the reduced-forest
	// prediction from the full forest, as a fraction of the forest's
	// output spread on the fitting sample (default 0.02). Smaller keeps
	// more trees and longer rules.
	Tolerance float64
	// SummarySample bounds the rows used to estimate the mean kept-tree
	// fraction recorded in the fitted summary (default 256).
	SummarySample int
}

// WithDefaults fills zero knobs with the package defaults. Idempotent;
// exported so the engine can derive cache keys from the effective
// configuration rather than the raw one.
func (c Config) WithDefaults() Config {
	if c.Tolerance == 0 {
		c.Tolerance = 0.02
	}
	if c.SummarySample == 0 {
		c.SummarySample = 256
	}
	return c
}

// Summary is the serializable description of a fitted rule model: the
// structural knobs plus the reduction statistics measured at fit time.
// It is all a reloaded explanation retains — predicting again needs the
// source forest (like EvaluateOn on a reloaded GAM explanation).
type Summary struct {
	// Tolerance echoes Config.Tolerance (relative).
	Tolerance float64 `json:"tolerance"`
	// AbsTolerance is the resolved absolute tolerance on the response
	// scale (Tolerance × output spread of the fitting sample).
	AbsTolerance float64 `json:"abs_tolerance"`
	// NumTrees is the full forest size rules reduce from.
	NumTrees int `json:"num_trees"`
	// MeanKeptTrees is the average number of trees a rule keeps,
	// measured over SampleRows fitting rows.
	MeanKeptTrees float64 `json:"mean_kept_trees"`
	// SampleRows is the number of rows behind MeanKeptTrees.
	SampleRows int `json:"sample_rows"`
}

// Model is a fitted rule surrogate. A model fitted by Fit predicts and
// extracts rules; a model reloaded via FromSummary only reports its
// Summary (Predict returns NaN — the forest is not serialized).
type Model struct {
	f       *forest.Forest
	fl      *forest.Flat
	summary Summary
}

// Term is one conjunct of a rule: a half-open or bounded range on a
// feature. Lo is -Inf and Hi is +Inf when the side is unconstrained.
type Term struct {
	Feature int
	Lo, Hi  float64
}

// Rule is the reduced conjunctive explanation of one prediction.
type Rule struct {
	// Terms are the intersected path constraints of the kept trees, in
	// feature order. x satisfies Lo < x[Feature] ≤ Hi for every term.
	Terms []Term
	// Prediction is the reduced-forest prediction (response scale); it
	// deviates from the full forest by at most the fitted tolerance.
	Prediction float64
	// ForestPrediction is the full forest's prediction for cross-checking.
	ForestPrediction float64
	// KeptTrees of TotalTrees survived the reduction.
	KeptTrees, TotalTrees int
}

// Fit prepares the rule surrogate over the shared D* artifacts: it
// compiles the forest once, resolves the relative tolerance against the
// output spread of train's labels (the forest's own responses), and
// measures the mean reduction on a bounded sample of train rows.
func Fit(ctx context.Context, f *forest.Forest, train *dataset.Dataset, cfg Config) (*Model, error) {
	cfg = cfg.WithDefaults()
	if train == nil || len(train.X) == 0 {
		return nil, fmt.Errorf("rules: empty fitting sample: %w", robust.ErrDegenerate)
	}
	_, sp := obs.Start(ctx, "rules.fit",
		obs.Int("trees", len(f.Trees)), obs.Int("train_rows", len(train.X)))
	defer sp.End()

	lo, hi := train.Y[0], train.Y[0]
	for _, y := range train.Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	m := &Model{
		f:  f,
		fl: f.Flat(),
		summary: Summary{
			Tolerance:    cfg.Tolerance,
			AbsTolerance: math.Max(cfg.Tolerance*(hi-lo), 1e-12),
			NumTrees:     len(f.Trees),
		},
	}

	// Reduction statistics on a bounded prefix of train, parallelized
	// per row (each row's reduction is independent, so chunked execution
	// is bitwise identical to serial).
	n := min(cfg.SummarySample, len(train.X))
	kept := make([]int, n)
	if err := par.For(ctx, n, 0, func(_, lo, hi int) {
		red := m.newReducer()
		for i := lo; i < hi; i++ {
			_, kept[i] = red.reduce(train.X[i])
		}
	}); err != nil {
		return nil, robust.CtxErr(err)
	}
	total := 0
	for _, k := range kept {
		total += k
	}
	m.summary.SampleRows = n
	m.summary.MeanKeptTrees = float64(total) / float64(n)
	sp.Set(obs.F64("mean_kept_trees", m.summary.MeanKeptTrees),
		obs.F64("abs_tolerance", m.summary.AbsTolerance))
	return m, nil
}

// FromSummary reconstructs the serialized view of a rule model. The
// result reports its Summary; Predict returns NaN and Explain returns
// an error, because the source forest is not part of the payload.
func FromSummary(s Summary) *Model { return &Model{summary: s} }

// Summary returns the fit-time reduction statistics.
func (m *Model) Summary() Summary { return m.summary }

// Fitted reports whether the model carries its forest (false after
// FromSummary) and can therefore predict and extract rules.
func (m *Model) Fitted() bool { return m.fl != nil }

// Predict returns the reduced-forest prediction for x on the response
// scale — the value the instance's rule concludes with. On a reloaded
// (summary-only) model it returns NaN.
func (m *Model) Predict(x []float64) float64 {
	if !m.Fitted() {
		return math.NaN()
	}
	pred, _ := m.newReducer().reduce(x)
	return pred
}

// PredictBatch evaluates the reduced prediction for every row,
// parallelized over rows with the bitwise-determinism contract.
func (m *Model) PredictBatch(ctx context.Context, xs [][]float64) ([]float64, error) {
	out := make([]float64, len(xs))
	if !m.Fitted() {
		for i := range out {
			out[i] = math.NaN()
		}
		return out, nil
	}
	if err := par.For(ctx, len(xs), 0, func(_, lo, hi int) {
		red := m.newReducer()
		for i := lo; i < hi; i++ {
			out[i], _ = red.reduce(xs[i])
		}
	}); err != nil {
		return nil, robust.CtxErr(err)
	}
	return out, nil
}

// Explain extracts the reduced conjunctive rule for x.
func (m *Model) Explain(x []float64) (*Rule, error) {
	if !m.Fitted() {
		return nil, fmt.Errorf("rules: model was reloaded without its forest; re-fit to extract rules")
	}
	red := m.newReducer()
	pred, k := red.reduce(x)
	r := &Rule{
		Prediction:       pred,
		ForestPrediction: m.f.Predict(x),
		KeptTrees:        k,
		TotalTrees:       m.fl.NumTrees,
	}

	// Intersect the root-to-leaf path constraints of the kept trees into
	// per-feature (lo, hi] ranges, mirroring the flat traversal exactly
	// (x ≤ threshold goes left, so NaN falls right like the kernels).
	los := map[int]float64{}
	his := map[int]float64{}
	for _, t := range red.order[:k] {
		i := m.fl.TreeRoot(t)
		for !m.fl.IsLeaf(i) {
			j := int(m.fl.Feature(i))
			thr := m.fl.Threshold(i)
			if x[j] <= thr {
				if h, ok := his[j]; !ok || thr < h {
					his[j] = thr
				}
				if _, ok := los[j]; !ok {
					los[j] = math.Inf(-1)
				}
				i = m.fl.Left(i)
			} else {
				if l, ok := los[j]; !ok || thr > l {
					los[j] = thr
				}
				if _, ok := his[j]; !ok {
					his[j] = math.Inf(1)
				}
				i = m.fl.Right(i)
			}
		}
	}
	feats := make([]int, 0, len(los))
	for j := range los {
		feats = append(feats, j)
	}
	sort.Ints(feats)
	for _, j := range feats {
		r.Terms = append(r.Terms, Term{Feature: j, Lo: los[j], Hi: his[j]})
	}
	return r, nil
}

// String renders the rule as "f1 > 0.2 AND f3 ∈ (0.1, 0.8] → 4.21".
func (r *Rule) String() string {
	var b strings.Builder
	if len(r.Terms) == 0 {
		b.WriteString("always")
	}
	for i, t := range r.Terms {
		if i > 0 {
			b.WriteString(" AND ")
		}
		switch {
		case math.IsInf(t.Lo, -1) && math.IsInf(t.Hi, 1):
			fmt.Fprintf(&b, "f%d ∈ ℝ", t.Feature)
		case math.IsInf(t.Lo, -1):
			fmt.Fprintf(&b, "f%d ≤ %.4g", t.Feature, t.Hi)
		case math.IsInf(t.Hi, 1):
			fmt.Fprintf(&b, "f%d > %.4g", t.Feature, t.Lo)
		default:
			fmt.Fprintf(&b, "f%d ∈ (%.4g, %.4g]", t.Feature, t.Lo, t.Hi)
		}
	}
	fmt.Fprintf(&b, " → %.4g (%d/%d trees)", r.Prediction, r.KeptTrees, r.TotalTrees)
	return b.String()
}

// reducer holds per-goroutine scratch for the per-instance reduction so
// parallel rows never share state.
type reducer struct {
	fl       *forest.Flat
	diffs    []float64 // leaf value − tree mean, per tree
	order    []int     // tree indices by |diff| descending
	suffixes []float64 // dropped-diff suffix sums, len trees+1
	absTol   float64
}

func (m *Model) newReducer() *reducer {
	nt := m.fl.NumTrees
	return &reducer{
		fl:       m.fl,
		diffs:    make([]float64, nt),
		order:    make([]int, nt),
		suffixes: make([]float64, nt+1),
		absTol:   m.summary.AbsTolerance,
	}
}

// reduce computes the reduced prediction for x: trees are ordered by how
// far their leaf deviates from the tree mean, and the shortest prefix
// whose prediction (kept leaves + dropped trees' means) stays within the
// absolute tolerance of the full forest wins. Returns the reduced
// response-scale prediction and the kept-tree count. The suffix scan is
// a fixed serial order, so results are bitwise identical at any worker
// count.
func (red *reducer) reduce(x []float64) (pred float64, kept int) {
	fl := red.fl
	nt := fl.NumTrees
	fullRaw := fl.BaseScore
	for t := 0; t < nt; t++ {
		v := fl.Value(fl.Leaf(t, x))
		fullRaw += v
		red.diffs[t] = v - fl.TreeMean(t)
		red.order[t] = t
	}
	d := red.diffs
	sort.Slice(red.order, func(a, b int) bool {
		da, db := math.Abs(d[red.order[a]]), math.Abs(d[red.order[b]])
		//lint:ignore floatcmp equal magnitudes fall through to the index tie-break, keeping the order total and deterministic
		if da != db {
			return da > db
		}
		return red.order[a] < red.order[b]
	})
	full := red.response(fullRaw)
	// suffixes[k] = Σ diffs of the dropped trees when keeping order[:k];
	// walking k upward finds the minimal prefix within tolerance.
	suffix := 0.0
	for k := nt - 1; k >= 0; k-- {
		suffix += d[red.order[k]]
		red.suffixes[k] = suffix
	}
	red.suffixes[nt] = 0
	for k := 0; k <= nt; k++ {
		p := red.response(fullRaw - red.suffixes[k])
		if math.Abs(p-full) <= red.absTol {
			return p, k
		}
	}
	return full, nt // unreachable: k = nt drops nothing
}

// response maps a raw additive score to the forest's response scale.
func (red *reducer) response(raw float64) float64 {
	if red.fl.Objective == forest.BinaryLogistic {
		return forest.Sigmoid(raw)
	}
	return raw
}

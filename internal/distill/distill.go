// Package distill implements the tree-prototyping baseline family the
// paper's related work contrasts GEF against: summarizing a large forest
// by a single, shallow decision tree trained on the forest's own
// predictions over a synthetic dataset. Like GEF it needs no training
// data; unlike GEF its explanation is a partition rather than additive
// curves, so it serves as a fidelity/interpretability reference point.
package distill

import (
	"fmt"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
	"gef/internal/sampling"
	"gef/internal/stats"
)

// Config controls single-tree distillation.
type Config struct {
	// MaxLeaves bounds the surrogate tree (default 16 — small enough to
	// read).
	MaxLeaves int
	// NumSamples is the synthetic dataset size (default 20,000).
	NumSamples int
	// Sampling selects the D* strategy (default All-Thresholds over all
	// used features).
	Sampling sampling.Config
	// TestFraction of D* held out for fidelity (default 0.2).
	TestFraction float64
	// Seed drives sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxLeaves == 0 {
		c.MaxLeaves = 16
	}
	if c.NumSamples == 0 {
		c.NumSamples = 20000
	}
	if c.Sampling.Strategy == "" {
		c.Sampling.Strategy = sampling.AllThresholds
	}
	if c.TestFraction == 0 {
		c.TestFraction = 0.2
	}
	return c
}

// Result is a distilled surrogate tree with its fidelity measurements.
type Result struct {
	// Tree is the surrogate (wrapped in a single-tree forest so the
	// standard prediction and serialization APIs apply).
	Tree *forest.Forest
	// RMSE and R2 measure agreement with the source forest on held-out
	// synthetic data.
	RMSE float64
	R2   float64
}

// Distill fits one regression tree to the forest's predictions over a
// threshold-derived synthetic dataset.
func Distill(f *forest.Forest, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := f.Seal(); err != nil {
		return nil, fmt.Errorf("distill: invalid forest: %w", err)
	}
	used := f.UsedFeatures()
	if len(used) == 0 {
		return nil, fmt.Errorf("distill: forest has no splits")
	}
	smp := cfg.Sampling
	if smp.Seed == 0 {
		smp.Seed = cfg.Seed + 1
	}
	domains, err := sampling.BuildDomains(f, used, smp)
	if err != nil {
		return nil, err
	}
	dstar := sampling.Generate(f, domains, cfg.NumSamples, cfg.Seed+2)
	// Distillation targets are the forest outputs on the response scale;
	// a single regression tree fits both tasks.
	dstar.Task = dataset.Regression
	train, test := dstar.Split(cfg.TestFraction, cfg.Seed+3)

	tree, err := gbdt.Train(train, gbdt.Params{
		NumTrees:       1,
		NumLeaves:      cfg.MaxLeaves,
		LearningRate:   1, // no shrinkage: the single tree is the model
		MinSamplesLeaf: 20,
		Lambda:         1e-9,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("distill: fitting surrogate tree: %w", err)
	}
	pred := tree.PredictBatch(test.X)
	return &Result{
		Tree: tree,
		RMSE: stats.RMSE(pred, test.Y),
		R2:   stats.R2(pred, test.Y),
	}, nil
}

// Rules converts the surrogate tree into human-readable decision rules,
// one per leaf: "f3 ≤ 0.52 AND f1 > 0.10 → 4.21".
func (r *Result) Rules(name func(int) string) []string {
	t := &r.Tree.Trees[0]
	var out []string
	var walk func(i int, conds []string)
	walk = func(i int, conds []string) {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			rule := "always"
			if len(conds) > 0 {
				rule = join(conds, " AND ")
			}
			out = append(out, fmt.Sprintf("%s → %.4g", rule, n.Value+r.Tree.BaseScore))
			return
		}
		// Cap both appends so sibling branches never share backing arrays.
		capped := conds[:len(conds):len(conds)]
		walk(n.Left, append(capped, fmt.Sprintf("%s ≤ %.4g", name(n.Feature), n.Threshold)))
		walk(n.Right, append(capped, fmt.Sprintf("%s > %.4g", name(n.Feature), n.Threshold)))
	}
	walk(0, nil)
	return out
}

func join(parts []string, sep string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += sep + p
	}
	return out
}

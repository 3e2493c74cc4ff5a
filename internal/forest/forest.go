// Package forest defines the decision-tree-ensemble data model GEF
// explains. A forest is a list of binary decision trees whose internal
// nodes test predicates of the form x_f ≤ v and whose leaves carry
// additive score contributions (the paper's §3.2 model). Each internal
// node also records the training-time loss reduction ("gain") and the
// number of training samples that reached it ("cover"): the gain feeds
// GEF's feature- and interaction-selection heuristics, the cover feeds
// path-dependent TreeSHAP.
//
// The package is trainer-agnostic: internal/gbdt produces these forests,
// but any forest (e.g. deserialized from JSON produced elsewhere) can be
// explained as long as it validates.
package forest

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"gef/internal/par"
	"gef/internal/robust"
)

// Objective identifies how raw forest scores map to predictions.
type Objective string

const (
	// Regression means raw scores are used directly (identity link).
	Regression Objective = "regression"
	// BinaryLogistic means raw scores are log-odds; Predict applies a
	// sigmoid to produce probabilities.
	BinaryLogistic Objective = "binary_logistic"
)

// Node is one node of a decision tree. Nodes are stored in a flat slice
// and referenced by index; index 0 is the root. Leaves have Left == -1.
type Node struct {
	Feature   int     `json:"feature"`   // split feature index (internal nodes)
	Threshold float64 `json:"threshold"` // split threshold: go left iff x ≤ v
	Left      int     `json:"left"`      // left child index, -1 for leaves
	Right     int     `json:"right"`     // right child index, -1 for leaves
	Gain      float64 `json:"gain"`      // training loss reduction at this split
	Cover     float64 `json:"cover"`     // training samples reaching this node
	Value     float64 `json:"value"`     // leaf contribution (leaves only)
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Left < 0 }

// Tree is a single binary decision tree.
type Tree struct {
	Nodes []Node `json:"nodes"`
}

// Leaf evaluates the tree on x and returns the index of the leaf reached.
func (t *Tree) Leaf(x []float64) int {
	i := 0
	for {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			return i
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Predict evaluates the tree on x and returns the reached leaf's value.
func (t *Tree) Predict(x []float64) float64 {
	return t.Nodes[t.Leaf(x)].Value
}

// NumLeaves returns the number of leaves in the tree.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			c++
		}
	}
	return c
}

// Depth returns the maximum root-to-leaf depth (a single leaf has depth
// 0). The walk uses an explicit stack, not recursion, so arbitrarily
// deep deserialized trees (degenerate chains included) cannot overflow
// the goroutine stack.
func (t *Tree) Depth() int {
	return treeDepthIter(t.Nodes)
}

// depthFrame is one explicit-stack entry of the iterative tree walks.
type depthFrame struct {
	node  int32
	depth int32
}

// treeDepthIter computes the max depth of a node slice iteratively.
func treeDepthIter(nodes []Node) int {
	if len(nodes) == 0 {
		return 0
	}
	stack := make([]depthFrame, 1, 64)
	stack[0] = depthFrame{0, 0}
	maxDepth := int32(0)
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &nodes[fr.node]
		if n.IsLeaf() {
			if fr.depth > maxDepth {
				maxDepth = fr.depth
			}
			continue
		}
		stack = append(stack,
			depthFrame{int32(n.Right), fr.depth + 1},
			depthFrame{int32(n.Left), fr.depth + 1})
	}
	return int(maxDepth)
}

// Forest is an additive ensemble of decision trees.
//
// A forest is sealed once it is complete (Seal): sealing validates it,
// stores its fingerprint and attaches its compiled Flat. Unmarshal, the
// gbdt trainers and Truncate return sealed forests. Do not modify a
// sealed forest — its fingerprint and Flat would go stale; build a new
// one instead, as Truncate does.
type Forest struct {
	Trees        []Tree    `json:"trees"`
	NumFeatures  int       `json:"num_features"`
	BaseScore    float64   `json:"base_score"` // constant added to every raw score
	Objective    Objective `json:"objective"`
	FeatureNames []string  `json:"feature_names,omitempty"`

	seal atomic.Pointer[seal] // set once by Seal; never copied with the struct
}

// seal is what Seal attaches to a forest: the values every consumer of
// a fixed forest would otherwise recompute per call.
type seal struct {
	fp   string
	flat *Flat
}

// Seal validates f once, stores its fingerprint and attaches its
// compiled Flat. It is idempotent and safe for concurrent use: once a
// seal is attached, later calls return nil at the cost of one atomic
// load. An invalid forest is left unsealed and its validation error is
// returned.
func (f *Forest) Seal() error {
	if f.seal.Load() != nil {
		return nil
	}
	if err := f.Validate(); err != nil {
		return err
	}
	// Concurrent first calls may each compile; one seal wins and every
	// caller observes it.
	f.seal.CompareAndSwap(nil, &seal{fp: f.fingerprint(), flat: Compile(f)})
	return nil
}

// Flat returns the compiled flat form of f: the one Seal attached, or —
// on a forest that was never sealed — a fresh compilation that is not
// kept.
func (f *Forest) Flat() *Flat {
	if s := f.seal.Load(); s != nil {
		return s.flat
	}
	return Compile(f)
}

// RawPredict returns the untransformed additive score for x:
// BaseScore + Σ_t t(x).
func (f *Forest) RawPredict(x []float64) float64 {
	s := f.BaseScore
	for i := range f.Trees {
		s += f.Trees[i].Predict(x)
	}
	return s
}

// Predict returns the forest prediction for x on the response scale:
// the raw score for regression, the sigmoid-transformed probability for
// binary classification.
func (f *Forest) Predict(x []float64) float64 {
	raw := f.RawPredict(x)
	if f.Objective == BinaryLogistic {
		return Sigmoid(raw)
	}
	return raw
}

// PredictBatch evaluates Predict on every row of xs through the flat
// batched kernels (see PredictBatchCtx), under a background context.
func (f *Forest) PredictBatch(xs [][]float64) []float64 {
	//lint:ignore errdrop background context cannot be canceled
	out, _ := f.PredictBatchCtx(context.Background(), xs)
	return out
}

// PredictBatchCtx evaluates Predict on every row of xs: raw scores run
// through the compiled flat forest's batched traversal kernel, in
// parallel over fixed row chunks (disjoint writes, so results are
// bitwise identical at any worker count), then the objective transform
// — hoisted out of the per-row loop — applies the same Sigmoid the
// single-row path uses. Returns ctx.Err() if canceled.
func (f *Forest) PredictBatchCtx(ctx context.Context, xs [][]float64) ([]float64, error) {
	out, err := f.RawPredictBatchCtx(ctx, xs)
	if err != nil {
		return nil, err
	}
	if f.Objective == BinaryLogistic {
		for i, v := range out {
			out[i] = Sigmoid(v)
		}
	}
	return out, nil
}

// RawPredictBatch evaluates RawPredict on every row of xs, like
// PredictBatch.
func (f *Forest) RawPredictBatch(xs [][]float64) []float64 {
	//lint:ignore errdrop background context cannot be canceled
	out, _ := f.RawPredictBatchCtx(context.Background(), xs)
	return out
}

// RawPredictBatchCtx evaluates RawPredict on every row of xs through
// the forest's flat compilation (Flat), parallel over fixed row chunks
// with disjoint writes. Returns ctx.Err() if canceled.
func (f *Forest) RawPredictBatchCtx(ctx context.Context, xs [][]float64) ([]float64, error) {
	fl := f.Flat()
	out := make([]float64, len(xs))
	if err := par.For(ctx, len(xs), 0, func(_, lo, hi int) {
		fl.RawPredictBatchInto(xs[lo:hi], out[lo:hi])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Sigmoid is the logistic function 1/(1+e^(−z)).
func Sigmoid(z float64) float64 {
	// Guard against overflow for very negative z.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// NumNodes returns the total number of nodes across all trees.
func (f *Forest) NumNodes() int {
	c := 0
	for i := range f.Trees {
		c += len(f.Trees[i].Nodes)
	}
	return c
}

// FeatureName returns the configured name for feature i, or "f<i>" when no
// names were supplied.
func (f *Forest) FeatureName(i int) string {
	if i >= 0 && i < len(f.FeatureNames) && f.FeatureNames[i] != "" {
		return f.FeatureNames[i]
	}
	return fmt.Sprintf("f%d", i)
}

// ThresholdsByFeature returns, for every feature index, the sorted list of
// split thresholds occurring in the forest (V_i in the paper, duplicates
// preserved: a threshold used by ten nodes appears ten times, which is what
// the density-following sampling strategies rely on).
func (f *Forest) ThresholdsByFeature() map[int][]float64 {
	out := make(map[int][]float64)
	for ti := range f.Trees {
		for ni := range f.Trees[ti].Nodes {
			n := &f.Trees[ti].Nodes[ni]
			if !n.IsLeaf() {
				out[n.Feature] = append(out[n.Feature], n.Threshold)
			}
		}
	}
	for k := range out {
		sort.Float64s(out[k])
	}
	return out
}

// UsedFeatures returns the sorted list of feature indices that occur in at
// least one split predicate (the paper's feature set F).
func (f *Forest) UsedFeatures() []int {
	seen := make(map[int]bool)
	for ti := range f.Trees {
		for ni := range f.Trees[ti].Nodes {
			n := &f.Trees[ti].Nodes[ni]
			if !n.IsLeaf() {
				seen[n.Feature] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// GainImportance returns the per-feature accumulated loss reduction across
// all nodes in the forest (the paper's univariate importance I(f_i)).
// The returned slice has length NumFeatures.
func (f *Forest) GainImportance() []float64 {
	imp := make([]float64, f.NumFeatures)
	for ti := range f.Trees {
		for ni := range f.Trees[ti].Nodes {
			n := &f.Trees[ti].Nodes[ni]
			if !n.IsLeaf() && n.Feature >= 0 && n.Feature < len(imp) {
				imp[n.Feature] += n.Gain
			}
		}
	}
	return imp
}

// SplitImportance returns the per-feature split counts across the forest
// (LightGBM's "split" importance type) — a robustness check against the
// gain importance GEF uses, since gain can be dominated by a few large
// early splits.
func (f *Forest) SplitImportance() []int {
	imp := make([]int, f.NumFeatures)
	for ti := range f.Trees {
		for ni := range f.Trees[ti].Nodes {
			n := &f.Trees[ti].Nodes[ni]
			if !n.IsLeaf() && n.Feature >= 0 && n.Feature < len(imp) {
				imp[n.Feature]++
			}
		}
	}
	return imp
}

// Validate checks structural invariants: child indices in range, no cycles
// (each node reachable at most once from the root), every feature index
// within NumFeatures, leaves consistent, trees non-empty, and every
// threshold, gain and leaf value finite (non-finite values wrap
// robust.ErrDegenerate — the pipeline cannot sample or fit through them).
// It returns the first violation found.
func (f *Forest) Validate() error {
	if f.NumFeatures <= 0 {
		return fmt.Errorf("forest: NumFeatures = %d, want > 0", f.NumFeatures)
	}
	switch f.Objective {
	case Regression, BinaryLogistic:
	default:
		return fmt.Errorf("forest: unknown objective %q", f.Objective)
	}
	for ti := range f.Trees {
		t := &f.Trees[ti]
		if len(t.Nodes) == 0 {
			return fmt.Errorf("forest: tree %d is empty", ti)
		}
		// Explicit-stack pre-order walk (left pushed last, so popped
		// first — the same visit order as the recursive formulation it
		// replaces, preserving which violation is reported first).
		// Iteration means a maliciously deep deserialized tree cannot
		// overflow the goroutine stack during validation.
		seen := make([]bool, len(t.Nodes))
		stack := make([]int, 1, 64)
		stack[0] = 0
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if i < 0 || i >= len(t.Nodes) {
				return fmt.Errorf("forest: tree %d references node %d out of range [0,%d)", ti, i, len(t.Nodes))
			}
			if seen[i] {
				return fmt.Errorf("forest: tree %d node %d reachable twice (cycle or DAG)", ti, i)
			}
			seen[i] = true
			n := &t.Nodes[i]
			if n.IsLeaf() {
				if n.Right >= 0 {
					return fmt.Errorf("forest: tree %d node %d has Left=-1 but Right=%d", ti, i, n.Right)
				}
				if math.IsNaN(n.Value) || math.IsInf(n.Value, 0) {
					return fmt.Errorf("forest: tree %d node %d has non-finite leaf value %v: %w", ti, i, n.Value, robust.ErrDegenerate)
				}
				continue
			}
			if n.Right < 0 {
				return fmt.Errorf("forest: tree %d node %d has Left=%d but Right=-1", ti, i, n.Left)
			}
			if n.Feature < 0 || n.Feature >= f.NumFeatures {
				return fmt.Errorf("forest: tree %d node %d splits on feature %d, want [0,%d)", ti, i, n.Feature, f.NumFeatures)
			}
			if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
				return fmt.Errorf("forest: tree %d node %d has non-finite threshold: %w", ti, i, robust.ErrDegenerate)
			}
			if math.IsNaN(n.Gain) || math.IsInf(n.Gain, 0) {
				return fmt.Errorf("forest: tree %d node %d has non-finite gain %v: %w", ti, i, n.Gain, robust.ErrDegenerate)
			}
			stack = append(stack, n.Right, n.Left)
		}
		for i, s := range seen {
			if !s {
				return fmt.Errorf("forest: tree %d node %d unreachable from root", ti, i)
			}
		}
	}
	return nil
}

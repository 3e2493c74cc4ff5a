package forest

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a forest's structure, for the CLI's inspection output
// and for sizing decisions (e.g. how many thresholds each feature
// contributes to the sampling domains).
type Stats struct {
	NumTrees       int
	NumNodes       int
	NumLeaves      int
	MaxDepth       int
	MeanLeaves     float64
	TotalGain      float64
	UsedFeatures   int
	ThresholdCount map[int]int // feature → number of split thresholds
}

// ComputeStats walks the forest once and returns its structural summary.
func ComputeStats(f *Forest) Stats {
	s := Stats{NumTrees: len(f.Trees), ThresholdCount: make(map[int]int)}
	for ti := range f.Trees {
		t := &f.Trees[ti]
		s.NumNodes += len(t.Nodes)
		leaves := 0
		for ni := range t.Nodes {
			n := &t.Nodes[ni]
			if n.IsLeaf() {
				leaves++
			} else {
				s.TotalGain += n.Gain
				s.ThresholdCount[n.Feature]++
			}
		}
		s.NumLeaves += leaves
		if d := t.Depth(); d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	if s.NumTrees > 0 {
		s.MeanLeaves = float64(s.NumLeaves) / float64(s.NumTrees)
	}
	s.UsedFeatures = len(s.ThresholdCount)
	return s
}

// String renders the summary in a compact human-readable block.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trees: %d, nodes: %d, leaves: %d (%.1f/tree), max depth: %d\n",
		s.NumTrees, s.NumNodes, s.NumLeaves, s.MeanLeaves, s.MaxDepth)
	fmt.Fprintf(&b, "features used: %d, total gain: %.4g", s.UsedFeatures, s.TotalGain)
	return b.String()
}

// TopThresholdFeatures returns up to k features ordered by how many split
// thresholds they contribute, descending (ties by index).
func (s Stats) TopThresholdFeatures(k int) []int {
	feats := make([]int, 0, len(s.ThresholdCount))
	for f := range s.ThresholdCount {
		feats = append(feats, f)
	}
	sort.Slice(feats, func(a, b int) bool {
		ca, cb := s.ThresholdCount[feats[a]], s.ThresholdCount[feats[b]]
		if ca != cb {
			return ca > cb
		}
		return feats[a] < feats[b]
	})
	if k < len(feats) {
		feats = feats[:k]
	}
	return feats
}

// Truncate returns a new sealed forest keeping only the first k trees —
// the standard way to evaluate a boosted ensemble at an earlier
// iteration. Trees are shared, not copied; the seal is not: the
// truncated forest gets its own fingerprint and Flat.
func (f *Forest) Truncate(k int) (*Forest, error) {
	if k < 1 || k > len(f.Trees) {
		return nil, fmt.Errorf("forest: cannot truncate %d trees to %d", len(f.Trees), k)
	}
	out := &Forest{
		Trees:        f.Trees[:k],
		NumFeatures:  f.NumFeatures,
		BaseScore:    f.BaseScore,
		Objective:    f.Objective,
		FeatureNames: f.FeatureNames,
	}
	if err := out.Seal(); err != nil {
		return nil, err
	}
	return out, nil
}

// StagedPredict returns the raw prediction of x after each boosting
// stage: out[i] is the raw score using trees 0..i. Useful for inspecting
// convergence without retraining.
func (f *Forest) StagedPredict(x []float64) []float64 {
	out := make([]float64, len(f.Trees))
	s := f.BaseScore
	for i := range f.Trees {
		s += f.Trees[i].Predict(x)
		out[i] = s
	}
	return out
}

package forest

import (
	"strings"
	"testing"
)

func TestComputeStats(t *testing.T) {
	f := twoTreeForest()
	s := ComputeStats(f)
	if s.NumTrees != 2 || s.NumNodes != 8 || s.NumLeaves != 5 {
		t.Errorf("stats %+v", s)
	}
	if s.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", s.MaxDepth)
	}
	if s.MeanLeaves != 2.5 {
		t.Errorf("MeanLeaves = %v, want 2.5", s.MeanLeaves)
	}
	if s.TotalGain != 9 { // 4 + 2 + 3
		t.Errorf("TotalGain = %v, want 9", s.TotalGain)
	}
	if s.UsedFeatures != 2 {
		t.Errorf("UsedFeatures = %d, want 2", s.UsedFeatures)
	}
	if s.ThresholdCount[1] != 2 || s.ThresholdCount[0] != 1 {
		t.Errorf("ThresholdCount = %v", s.ThresholdCount)
	}
}

func TestStatsString(t *testing.T) {
	out := ComputeStats(twoTreeForest()).String()
	if !strings.Contains(out, "trees: 2") || !strings.Contains(out, "max depth: 2") {
		t.Errorf("String() = %q", out)
	}
}

func TestTopThresholdFeatures(t *testing.T) {
	s := ComputeStats(twoTreeForest())
	top := s.TopThresholdFeatures(1)
	if len(top) != 1 || top[0] != 1 {
		t.Errorf("TopThresholdFeatures = %v, want [1]", top)
	}
	all := s.TopThresholdFeatures(10)
	if len(all) != 2 {
		t.Errorf("got %d features, want 2", len(all))
	}
}

func TestTruncate(t *testing.T) {
	f := twoTreeForest()
	if err := f.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	g, err := f.Truncate(1)
	if err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if len(g.Trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(g.Trees))
	}
	x := []float64{0.4, 0.2}
	// tree1 → 1 plus base 0.5.
	if got := g.RawPredict(x); got != 1.5 {
		t.Errorf("truncated prediction = %v, want 1.5", got)
	}
	// The truncated forest is sealed on its own: the parent's stored
	// fingerprint and two-tree Flat must not ride along with the struct.
	if g.Fingerprint() == f.Fingerprint() {
		t.Error("truncated forest reports the parent's fingerprint")
	}
	bare := &Forest{Trees: f.Trees[:1], NumFeatures: f.NumFeatures, BaseScore: f.BaseScore, Objective: f.Objective}
	if got, want := g.Fingerprint(), bare.Fingerprint(); got != want {
		t.Errorf("truncated fingerprint %s, unsealed one-tree copy %s", got, want)
	}
	if got := g.RawPredictBatch([][]float64{x})[0]; got != 1.5 {
		t.Errorf("truncated batch prediction = %v, want 1.5", got)
	}
	if got := g.Flat().RawPredict(x); got != 1.5 {
		t.Errorf("truncated Flat prediction = %v, want 1.5", got)
	}
	// Original untouched.
	if len(f.Trees) != 2 {
		t.Error("Truncate mutated the source forest")
	}
	if _, err := f.Truncate(0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := f.Truncate(3); err == nil {
		t.Error("accepted k beyond tree count")
	}
}

func TestStagedPredict(t *testing.T) {
	f := twoTreeForest()
	x := []float64{0.4, 0.2}
	staged := f.StagedPredict(x)
	if len(staged) != 2 {
		t.Fatalf("staged length %d", len(staged))
	}
	if staged[0] != 1.5 { // base + tree1
		t.Errorf("staged[0] = %v, want 1.5", staged[0])
	}
	if staged[1] != f.RawPredict(x) {
		t.Errorf("staged final %v != RawPredict %v", staged[1], f.RawPredict(x))
	}
	// Consistency with Truncate at every stage.
	for k := 1; k <= 2; k++ {
		g, err := f.Truncate(k)
		if err != nil {
			t.Fatal(err)
		}
		if g.RawPredict(x) != staged[k-1] {
			t.Errorf("stage %d mismatch", k)
		}
	}
}

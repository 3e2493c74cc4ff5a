package forest

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzFlatParity asserts the central compilation contract: on any
// randomized forest and any row (NaN coordinates included), the flat
// layout routes every tree to exactly the leaf the pointer walk
// reaches, and the additive raw scores are bitwise equal.
// The fuzzer drives the generator through a seed so every failure is
// reproducible from the corpus entry alone.
func FuzzFlatParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(20), false)
	f.Add(int64(42), uint8(1), uint8(1), uint8(0), true)
	f.Add(int64(7), uint8(8), uint8(6), uint8(60), true)

	f.Fuzz(func(t *testing.T, seed int64, numTrees, numFeat, maxInternal uint8, withNaN bool) {
		r := rand.New(rand.NewSource(seed))
		nt := 1 + int(numTrees)%8
		nf := 1 + int(numFeat)%6
		fr := randForest(r, nt, nf, int(maxInternal)%64, Regression)
		if err := fr.Validate(); err != nil {
			t.Fatalf("generator produced an invalid forest: %v", err)
		}
		fl := Compile(fr)

		nanProb := 0.0
		if withNaN {
			nanProb = 0.15
		}
		xs := make([][]float64, 40)
		for i := range xs {
			xs[i] = randRow(r, nf, nanProb)
		}

		leaves := make([]int32, len(xs)*fl.NumTrees)
		fl.LeavesBatch(xs, leaves)
		raw := make([]float64, len(xs))
		fl.RawPredictBatchInto(xs, raw)
		for i, x := range xs {
			want := fr.BaseScore
			for ti := range fr.Trees {
				ptr := int32(fr.Trees[ti].Leaf(x))
				if got := leaves[i*fl.NumTrees+ti]; fl.OrigIndex(got) != ptr {
					t.Fatalf("row %d tree %d: flat leaf %d (orig %d), pointer leaf %d (x=%v)",
						i, ti, got, fl.OrigIndex(got), ptr, x)
				}
				if got := fl.Leaf(ti, x); fl.OrigIndex(got) != ptr {
					t.Fatalf("row %d tree %d: walk leaf %d (orig %d), pointer leaf %d",
						i, ti, got, fl.OrigIndex(got), ptr)
				}
				want += fr.Trees[ti].Predict(x)
			}
			if math.Float64bits(raw[i]) != math.Float64bits(want) {
				t.Fatalf("row %d: raw %v, pointer raw %v", i, raw[i], want)
			}
		}
	})
}

// FuzzSpecializeParity asserts the specialization contract: on rows
// whose features outside a random free set hold the fill values, the
// Flat specialized to (free, fill) routes every tree to the leaf the
// full Flat and the pointer walk reach, and raw scores are bitwise
// equal. Fill values are drawn from the forest's own thresholds, so
// held splits are decided exactly at x == threshold; free coordinates
// are random and may be NaN.
func FuzzSpecializeParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(20), false)
	f.Add(int64(42), uint8(1), uint8(1), uint8(0), true)
	f.Add(int64(7), uint8(8), uint8(6), uint8(60), true)
	f.Add(int64(9), uint8(6), uint8(5), uint8(40), false)

	f.Fuzz(func(t *testing.T, seed int64, numTrees, numFeat, maxInternal uint8, withNaN bool) {
		r := rand.New(rand.NewSource(seed))
		nt := 1 + int(numTrees)%8
		nf := 1 + int(numFeat)%6
		fr := randForest(r, nt, nf, int(maxInternal)%64, Regression)
		if err := fr.Validate(); err != nil {
			t.Fatalf("generator produced an invalid forest: %v", err)
		}
		fl := Compile(fr)

		var free []int
		held := make([]bool, nf)
		fill := make([]float64, nf)
		thresholds := fr.ThresholdsByFeature()
		for j := 0; j < nf; j++ {
			if r.Intn(2) == 0 {
				free = append(free, j)
			} else {
				held[j] = true
			}
			if th := thresholds[j]; len(th) > 0 {
				fill[j] = th[r.Intn(len(th))]
			} else {
				fill[j] = r.NormFloat64()
			}
		}
		sp := fl.Specialize(free, fill)
		if sp.NumNodes() > fl.NumNodes() || sp.NumTrees != fl.NumTrees {
			t.Fatalf("specialized %d nodes in %d trees from %d in %d", sp.NumNodes(), sp.NumTrees, fl.NumNodes(), fl.NumTrees)
		}

		nanProb := 0.0
		if withNaN {
			nanProb = 0.15
		}
		xs := make([][]float64, 40)
		for i := range xs {
			xs[i] = randRow(r, nf, nanProb)
			for j := range held {
				if held[j] {
					xs[i][j] = fill[j]
				}
			}
		}

		raw := make([]float64, len(xs))
		fl.RawPredictBatchInto(xs, raw)
		spRaw := make([]float64, len(xs))
		sp.RawPredictBatchInto(xs, spRaw)
		for i, x := range xs {
			want := fr.BaseScore
			for ti := range fr.Trees {
				ptr := int32(fr.Trees[ti].Leaf(x))
				got := sp.Leaf(ti, x)
				if sp.OrigIndex(got) != ptr {
					t.Fatalf("row %d tree %d: specialized leaf orig %d, pointer leaf %d (x=%v free=%v fill=%v)",
						i, ti, sp.OrigIndex(got), ptr, x, free, fill)
				}
				if v, w := sp.Value(got), fl.Value(fl.Leaf(ti, x)); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("row %d tree %d: specialized leaf value %v, full %v", i, ti, v, w)
				}
				want += fr.Trees[ti].Predict(x)
			}
			if math.Float64bits(spRaw[i]) != math.Float64bits(want) || math.Float64bits(raw[i]) != math.Float64bits(want) {
				t.Fatalf("row %d: specialized raw %v, full raw %v, pointer raw %v", i, spRaw[i], raw[i], want)
			}
		}
	})
}

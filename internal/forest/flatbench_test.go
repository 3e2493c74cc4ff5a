package forest

import (
	"math/rand"
	"testing"
)

// benchFixture builds a 100-tree, 16-leaf-scale forest and a row batch
// shaped like the D* labeling workload.
func benchFixture(b *testing.B) (*Forest, [][]float64) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	f := randForest(r, 100, 8, 15, Regression)
	xs := make([][]float64, 4096)
	for i := range xs {
		xs[i] = randRow(r, 8, 0)
	}
	return f, xs
}

func BenchmarkPointerPredict(b *testing.B) {
	f, xs := benchFixture(b)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, x := range xs {
			out[i] = f.Predict(x)
		}
	}
}

func BenchmarkFlatPredictBatch(b *testing.B) {
	f, xs := benchFixture(b)
	fl := Compile(f)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		fl.PredictBatchInto(xs, out)
	}
}

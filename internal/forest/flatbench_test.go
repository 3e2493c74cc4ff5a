package forest

import (
	"math/rand"
	"strconv"
	"testing"
)

// benchFixture builds a sealed 100-tree, 16-leaf-scale forest and a row
// batch shaped like the D* labeling workload.
func benchFixture(b *testing.B) (*Forest, [][]float64) {
	b.Helper()
	r := rand.New(rand.NewSource(5))
	f := randForest(r, 100, 8, 15, Regression)
	if err := f.Seal(); err != nil {
		b.Fatal(err)
	}
	xs := make([][]float64, 4096)
	for i := range xs {
		xs[i] = randRow(r, 8, 0)
	}
	return f, xs
}

// benchKernel runs predict as b1/b64/b4096 sub-benchmarks — a
// single-row explain, a par chunk and a D* labeling block — and reports
// the per-row cost.
func benchKernel(b *testing.B, predict func(*Forest, [][]float64, []float64)) {
	f, xs := benchFixture(b)
	out := make([]float64, len(xs))
	for _, batch := range []int{1, 64, 4096} {
		b.Run("b"+strconv.Itoa(batch), func(b *testing.B) {
			rows := xs[:batch]
			for n := 0; n < b.N; n++ {
				predict(f, rows, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
		})
	}
}

func BenchmarkPointerPredict(b *testing.B) {
	benchKernel(b, func(f *Forest, xs [][]float64, out []float64) {
		for i, x := range xs {
			out[i] = f.Predict(x)
		}
	})
}

func BenchmarkFlatPredictBatch(b *testing.B) {
	benchKernel(b, func(f *Forest, xs [][]float64, out []float64) {
		f.Flat().PredictBatchInto(xs, out[:len(xs)])
	})
}

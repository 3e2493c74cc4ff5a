package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// frobenius returns ‖m‖_F.
func frobenius(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// randSym builds a random symmetric n×n matrix with entries in [-1, 1).
func randSym(r *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 2*r.Float64() - 1
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// checkEigen requires values ascending, UᵀU = I to 1e-12 and
// ‖A − UΛUᵀ‖_F ≤ 1e-12·‖A‖_F.
func checkEigen(t *testing.T, name string, a *Matrix) ([]float64, *Matrix) {
	t.Helper()
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatalf("%s: SymEigen: %v", name, err)
	}
	n := a.Rows
	if len(vals) != n || vecs.Rows != n || vecs.Cols != n {
		t.Fatalf("%s: got %d values and a %d×%d vector matrix for n=%d", name, len(vals), vecs.Rows, vecs.Cols, n)
	}
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1] {
			t.Errorf("%s: values not ascending at %d: %v", name, i, vals)
		}
	}
	// vecs holds Uᵀ row by row, so vecs·vecsᵀ = UᵀU.
	if d := MaxAbsDiff(Mul(vecs, vecs.T()), identity(n)); d > 1e-12 {
		t.Errorf("%s: |UᵀU − I|_max = %g", name, d)
	}
	recon := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		u := vecs.Row(k)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				recon.Add(i, j, vals[k]*u[i]*u[j])
			}
		}
	}
	diff := a.Clone()
	diff.AddScaled(-1, recon)
	if e, bound := frobenius(diff), 1e-12*frobenius(a); e > bound {
		t.Errorf("%s: ‖A − UΛUᵀ‖ = %g > %g", name, e, bound)
	}
	return vals, vecs
}

func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestSymEigenRandom(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{2, 3, 7, 20, 64} {
		checkEigen(t, "random", randSym(r, n))
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	diag := []float64{3, -1, 0, 7.5, 2}
	a := NewMatrix(len(diag), len(diag))
	for i, v := range diag {
		a.Set(i, i, v)
	}
	vals, _ := checkEigen(t, "diagonal", a)
	want := []float64{-1, 0, 2, 3, 7.5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-14 {
			t.Errorf("diagonal: values = %v, want %v", vals, want)
			break
		}
	}
}

func TestSymEigenRepeated(t *testing.T) {
	// Q diag(2,2,2,5,5,-1) Qᵀ for a random orthogonal Q: two repeated
	// clusters whose eigenvectors are only defined up to rotation.
	r := rand.New(rand.NewSource(37))
	spec := []float64{2, 2, 2, 5, 5, -1}
	n := len(spec)
	_, q, err := SymEigen(randSym(r, n))
	if err != nil {
		t.Fatal(err)
	}
	a := NewMatrix(n, n)
	for k, lam := range spec {
		u := q.Row(k)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, lam*u[i]*u[j])
			}
		}
	}
	vals, _ := checkEigen(t, "repeated", a)
	want := []float64{-1, 2, 2, 2, 5, 5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("repeated: values = %v, want %v", vals, want)
			break
		}
	}
	// The identity is the extreme case: one eigenvalue of multiplicity n.
	checkEigen(t, "identity", identity(9))
}

func TestSymEigenZeroAndOne(t *testing.T) {
	vals, vecs := checkEigen(t, "zero", NewMatrix(5, 5))
	for _, v := range vals {
		if v != 0 {
			t.Errorf("zero matrix: values = %v", vals)
			break
		}
	}
	if d := MaxAbsDiff(vecs, identity(5)); d != 0 {
		t.Errorf("zero matrix: vectors differ from I by %g", d)
	}
	vals, vecs = checkEigen(t, "1×1", NewMatrixFrom([][]float64{{-4.5}}))
	if vals[0] != -4.5 || vecs.At(0, 0) != 1 {
		t.Errorf("1×1: values %v vectors %v", vals, vecs.Data)
	}
	if vals, vecs, err := SymEigen(NewMatrix(0, 0)); err != nil || len(vals) != 0 || vecs.Rows != 0 {
		t.Errorf("0×0: %v %v %v", vals, vecs, err)
	}
}

func TestSymEigenRankDeficient(t *testing.T) {
	// A = GGᵀ with G n×k has rank k: n−k eigenvalues must vanish.
	r := rand.New(rand.NewSource(41))
	n, k := 12, 4
	g := randMatrix(r, n, k)
	a := Mul(g, g.T())
	vals, _ := checkEigen(t, "rank-deficient", a)
	scale := math.Abs(vals[n-1])
	for i := 0; i < n-k; i++ {
		if math.Abs(vals[i]) > 1e-13*scale {
			t.Errorf("rank-deficient: value %d = %g, want ≈ 0", i, vals[i])
		}
	}
	for i := n - k; i < n; i++ {
		if vals[i] <= 1e-6*scale {
			t.Errorf("rank-deficient: value %d = %g, want > 0", i, vals[i])
		}
	}
}

func TestSymEigenRejectsBadInput(t *testing.T) {
	if _, _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
	a := identity(3)
	a.Set(2, 1, math.NaN())
	if _, _, err := SymEigen(a); err == nil {
		t.Error("NaN matrix accepted")
	}
}

// FuzzSymEigen decomposes symmetric matrices built from arbitrary bytes:
// each byte is a small integer entry, so inputs cover repeated, zero,
// sparse and low-rank patterns; scaleExp spreads their magnitude.
func FuzzSymEigen(f *testing.F) {
	f.Add(uint8(1), int8(0), []byte{7})
	f.Add(uint8(3), int8(0), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(5), int8(-20), []byte{0, 0, 0, 0, 1})
	f.Add(uint8(6), int8(30), []byte{255, 1, 255, 1, 128, 0, 3})
	f.Add(uint8(8), int8(0), []byte{})
	f.Add(uint8(10), int8(5), []byte("tridiagonal-ish seed for the QL sweeps"))
	f.Fuzz(func(t *testing.T, size uint8, scaleExp int8, data []byte) {
		n := int(size%12) + 1
		scale := math.Ldexp(1, int(scaleExp)%60)
		a := NewMatrix(n, n)
		k := 0
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var v float64
				if len(data) > 0 {
					v = float64(int8(data[k%len(data)])) * scale
					k++
				}
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		checkEigen(t, "fuzz", a)
	})
}

package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive definite n×n matrix
// A = Gᵀ G + n·I.
func randSPD(r *rand.Rand, n int) *Matrix {
	g := randMatrix(r, n, n)
	a := Mul(g.T(), g)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [6,5] → x = [1,1].
	a := NewMatrixFrom([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	x := ch.Solve([]float64{6, 5})
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 1, 1e-12) {
		t.Errorf("Solve = %v, want [1 1]", x)
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a, 0); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3), 0); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

// Property: for random SPD systems, A·Solve(A, b) ≈ b.
func TestCholeskySolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ch, err := NewCholesky(a, 0)
		if err != nil {
			return false
		}
		x := ch.Solve(b)
		res := MulVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyInverse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randSPD(r, 6)
	ch, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	inv := ch.Inverse()
	prod := Mul(a, inv)
	eye := NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		eye.Set(i, i, 1)
	}
	if d := MaxAbsDiff(prod, eye); d > 1e-9 {
		t.Errorf("A·A⁻¹ deviates from I by %g", d)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: log det is the sum of log of diagonal entries.
	a := NewMatrixFrom([][]float64{{2, 0}, {0, 8}})
	ch, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	want := math.Log(16)
	if !almostEqual(ch.LogDet(), want, 1e-12) {
		t.Errorf("LogDet = %v, want %v", ch.LogDet(), want)
	}
}

func TestSolveMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 5
	a := randSPD(r, n)
	b := randMatrix(r, n, 3)
	ch, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	x := ch.SolveMatrix(b)
	if d := MaxAbsDiff(Mul(a, x), b); d > 1e-8 {
		t.Errorf("A·X deviates from B by %g", d)
	}
}

func TestFactorizeSPDWithSingularMatrix(t *testing.T) {
	// Rank-deficient PSD matrix (xxᵀ); jitter escalation must succeed.
	a := NewMatrix(3, 3)
	a.SymRankOneUpdate(1, []float64{1, 2, 3})
	a.SymmetrizeFromUpper()
	ch, err := FactorizeSPD(a)
	if err != nil {
		t.Fatalf("FactorizeSPD failed on PSD matrix: %v", err)
	}
	if ch.Size() != 3 {
		t.Errorf("Size = %d, want 3", ch.Size())
	}
}

func TestPackedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := randSPD(r, 9)
	ch, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	packed := ch.PackLower()
	if len(packed) != 9*10/2 {
		t.Fatalf("packed length %d, want 45", len(packed))
	}
	ch2, err := NewCholeskyFromPacked(9, packed)
	if err != nil {
		t.Fatalf("NewCholeskyFromPacked: %v", err)
	}
	b := make([]float64, 9)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x1 := ch.Solve(b)
	x2 := ch2.Solve(b)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("solve differs after pack round trip")
		}
	}
	if ch.LogDet() != ch2.LogDet() {
		t.Error("LogDet differs after pack round trip")
	}
}

func TestPackedErrors(t *testing.T) {
	if _, err := NewCholeskyFromPacked(3, []float64{1, 2}); err == nil {
		t.Error("accepted wrong packed length")
	}
	if _, err := NewCholeskyFromPacked(2, []float64{1, 0, -1}); err == nil {
		t.Error("accepted non-positive diagonal")
	}
}

func TestFactorizeSPDFailsOnIndefinite(t *testing.T) {
	// Strongly indefinite matrix: even the jitter ladder must give up.
	a := NewMatrixFrom([][]float64{{-100, 0}, {0, -100}})
	if _, err := FactorizeSPD(a); err == nil {
		t.Error("accepted a negative-definite matrix")
	}
	if _, err := FactorizeSPD(NewMatrix(2, 3)); err == nil {
		t.Error("accepted a non-square matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	a := NewMatrixFrom([][]float64{{2, 0}, {0, 2}})
	x, err := SolveSPD(a, []float64{4, 6})
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Errorf("SolveSPD = %v, want [2 3]", x)
	}
}

// TestSolveLMatrices checks the row-operation triangular solves against
// a column-by-column solve: L⁻¹B then L⁻ᵀ of that is A⁻¹B.
func TestSolveLMatrices(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 9
	a := randSPD(r, n)
	b := randMatrix(r, n, 4)
	ch, err := NewCholesky(a, 0)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	x := b.Clone()
	ch.SolveLMatrix(x)
	// L·(L⁻¹B) = B: rebuild L from the packed factor.
	l := NewMatrix(n, n)
	packed := ch.PackLower()
	for i, k := 0, 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, packed[k])
			k++
		}
	}
	if d := MaxAbsDiff(Mul(l, x), b); d > 1e-12 {
		t.Errorf("|L·SolveLMatrix(B) − B| = %g", d)
	}
	ch.SolveLTMatrix(x)
	if d := MaxAbsDiff(x, ch.SolveMatrix(b)); d > 1e-12 {
		t.Errorf("|SolveLTMatrix(SolveLMatrix(B)) − A⁻¹B| = %g", d)
	}
}

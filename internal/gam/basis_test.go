package gam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBSplinePartitionOfUnity(t *testing.T) {
	bs, err := newBSpline(10, 0, 1)
	if err != nil {
		t.Fatalf("newBSpline: %v", err)
	}
	vals := make([]float64, degree+1)
	for x := 0.0; x <= 1.0001; x += 0.01 {
		xx := math.Min(x, 1)
		bs.evaluate(xx, vals)
		var s float64
		for _, v := range vals {
			if v < -1e-12 {
				t.Fatalf("negative basis value %v at x=%v", v, xx)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("basis sum = %v at x=%v, want 1", s, xx)
		}
	}
}

func TestBSplineActiveRange(t *testing.T) {
	bs, err := newBSpline(8, -2, 3)
	if err != nil {
		t.Fatalf("newBSpline: %v", err)
	}
	vals := make([]float64, degree+1)
	first := bs.evaluate(-2, vals)
	if first != 0 {
		t.Errorf("first active at lo = %d, want 0", first)
	}
	first = bs.evaluate(3, vals)
	if first != 8-degree-1 {
		t.Errorf("first active at hi = %d, want %d", first, 8-degree-1)
	}
}

func TestBSplineClampsOutOfRange(t *testing.T) {
	bs, _ := newBSpline(6, 0, 1)
	v1 := make([]float64, degree+1)
	v2 := make([]float64, degree+1)
	f1 := bs.evaluate(-5, v1)
	f2 := bs.evaluate(0, v2)
	if f1 != f2 {
		t.Errorf("clamped evaluation picked different span: %d vs %d", f1, f2)
	}
	for k := range v1 {
		if v1[k] != v2[k] {
			t.Errorf("clamped values differ at %d", k)
		}
	}
}

func TestBSplineTooFewBasis(t *testing.T) {
	if _, err := newBSpline(3, 0, 1); err == nil {
		t.Error("accepted m < 4")
	}
}

func TestBSplineDegenerateRange(t *testing.T) {
	bs, err := newBSpline(5, 2, 2)
	if err != nil {
		t.Fatalf("newBSpline: %v", err)
	}
	vals := make([]float64, degree+1)
	bs.evaluate(2, vals) // must not panic or divide by zero
	var s float64
	for _, v := range vals {
		s += v
	}
	if math.Abs(s-1) > 1e-10 {
		t.Errorf("degenerate basis sum = %v", s)
	}
}

// Property: partition of unity holds for random basis sizes and ranges.
func TestBSplinePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(20)
		lo := r.NormFloat64() * 10
		hi := lo + r.Float64()*20 + 0.1
		bs, err := newBSpline(m, lo, hi)
		if err != nil {
			return false
		}
		vals := make([]float64, degree+1)
		for k := 0; k < 20; k++ {
			x := lo + r.Float64()*(hi-lo)
			first := bs.evaluate(x, vals)
			if first < 0 || first+degree >= m {
				return false
			}
			var s float64
			for _, v := range vals {
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSecondDiffPenaltyAnnihilatesLinear(t *testing.T) {
	m := 8
	s := secondDiffPenalty(m)
	// Constant and linear coefficient vectors have zero penalty.
	for name, beta := range map[string][]float64{
		"constant": repeated(1, m),
		"linear":   ramp(m),
	} {
		if q := quadForm(s, beta); math.Abs(q) > 1e-12 {
			t.Errorf("%s vector penalized: %v", name, q)
		}
	}
	// A wiggly vector must be penalized.
	wiggle := make([]float64, m)
	for i := range wiggle {
		wiggle[i] = float64(i%2)*2 - 1
	}
	if q := quadForm(s, wiggle); q <= 0 {
		t.Errorf("wiggly vector penalty = %v, want > 0", q)
	}
}

func repeated(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestSecondDiffPenaltyKnownSmall(t *testing.T) {
	// m=3: D = [1 −2 1], S = DᵀD.
	s := secondDiffPenalty(3)
	want := [][]float64{{1, -2, 1}, {-2, 4, -2}, {1, -2, 1}}
	for i := range want {
		for j := range want[i] {
			if s.At(i, j) != want[i][j] {
				t.Errorf("S[%d][%d] = %v, want %v", i, j, s.At(i, j), want[i][j])
			}
		}
	}
}

func TestKroneckerSum(t *testing.T) {
	s1 := secondDiffPenalty(4)
	s2 := secondDiffPenalty(5)
	ks := kroneckerSum(s1, s2)
	if ks.Rows != 20 || ks.Cols != 20 {
		t.Fatalf("dims %d×%d, want 20×20", ks.Rows, ks.Cols)
	}
	// Symmetry.
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if ks.At(i, j) != ks.At(j, i) {
				t.Fatalf("kronecker sum not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// The doubly-constant vector lies in the null space.
	if q := quadForm(ks, repeated(1, 20)); math.Abs(q) > 1e-12 {
		t.Errorf("constant penalized by tensor penalty: %v", q)
	}
	// Bilinear (outer product of ramps) also lies in the null space of
	// second-difference ⊗-sum penalties.
	bilinear := make([]float64, 20)
	for a := 0; a < 4; a++ {
		for b := 0; b < 5; b++ {
			bilinear[a*5+b] = float64(a) * float64(b)
		}
	}
	if q := quadForm(ks, bilinear); math.Abs(q) > 1e-10 {
		t.Errorf("bilinear penalized: %v", q)
	}
}

// TestPenaltyBlockTensorNullSpace: tensor penalty blocks carry the
// null-space shrinkage on their diagonal.
func TestPenaltyBlockTensorNullSpace(t *testing.T) {
	m := 4
	plain := kroneckerSum(secondDiffPenalty(m), secondDiffPenalty(m))
	shrunk := penaltyBlock(Tensor, m)
	for i := 0; i < plain.Rows; i++ {
		want := plain.At(i, i) + tensorNullPenalty
		if got := shrunk.At(i, i); got != want {
			t.Fatalf("diagonal %d: got %v, want %v", i, got, want)
		}
	}
}

func TestIdentityPenalty(t *testing.T) {
	s := identityPenalty(3)
	if s.Trace() != 3 || s.At(0, 1) != 0 {
		t.Errorf("identity penalty wrong: %+v", s.Data)
	}
}

func TestFactorLevelsAndIndex(t *testing.T) {
	levels := factorLevels([]float64{2, 1, 2, 3, 1})
	if len(levels) != 3 || levels[0] != 1 || levels[2] != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if levelIndex(levels, 2) != 1 {
		t.Errorf("levelIndex(2) = %d, want 1", levelIndex(levels, 2))
	}
	if levelIndex(levels, 2.5) != -1 {
		t.Errorf("unseen level should map to -1")
	}
}

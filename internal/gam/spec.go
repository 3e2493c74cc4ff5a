package gam

import (
	"fmt"
	"math"
)

// Link selects the GAM's link function (paper §3.5: identity with Normal
// response for regression, logit with Binomial response for
// classification).
type Link string

const (
	// Identity fits E[y|x] = α + Σ s_j directly.
	Identity Link = "identity"
	// Logit fits log(μ/(1−μ)) = α + Σ s_j; responses may be probabilities
	// in [0,1] (the distillation targets produced by a classification
	// forest) or hard 0/1 labels.
	Logit Link = "logit"
)

// TermKind distinguishes the three term families of §3.5.
type TermKind string

const (
	// Spline is a univariate penalized cubic B-spline term.
	Spline TermKind = "spline"
	// Factor is a categorical term: one coefficient per observed level
	// with a ridge penalty.
	Factor TermKind = "factor"
	// Tensor is a bivariate penalized tensor-product spline term.
	Tensor TermKind = "tensor"
)

// TermSpec declares one additive component of the GAM.
type TermSpec struct {
	Kind     TermKind
	Feature  int // feature index (Spline, Factor, and first axis of Tensor)
	Feature2 int // second feature (Tensor only)
	NumBasis int // basis size per axis; defaults: 12 (Spline), 6 (Tensor)
}

func (t TermSpec) withDefaults() TermSpec {
	if t.NumBasis == 0 {
		switch t.Kind {
		case Tensor:
			t.NumBasis = 6
		default:
			t.NumBasis = 12
		}
	}
	return t
}

// Label returns a human-readable identifier for the term given a feature
// namer.
func (t TermSpec) Label(name func(int) string) string {
	switch t.Kind {
	case Tensor:
		return fmt.Sprintf("te(%s,%s)", name(t.Feature), name(t.Feature2))
	case Factor:
		return fmt.Sprintf("factor(%s)", name(t.Feature))
	default:
		return fmt.Sprintf("s(%s)", name(t.Feature))
	}
}

// Spec declares the full GAM structure.
type Spec struct {
	Terms []TermSpec
	Link  Link // default Identity
}

// Options controls fitting.
type Options struct {
	// Lambdas is the GCV search grid for the shared smoothing parameter.
	// Default: 25 log-spaced values in [1e−4, 1e6].
	Lambdas []float64
	// MaxIRLS bounds the P-IRLS iterations for the logit link (default
	// 25, also used for values ≤ 0).
	MaxIRLS int
	// Tol is the relative deviance-change convergence threshold for
	// P-IRLS (default 1e-6).
	Tol float64
}

func (o Options) withDefaults() Options {
	if len(o.Lambdas) == 0 {
		o.Lambdas = LogSpace(1e-4, 1e6, 25)
	}
	if o.MaxIRLS <= 0 {
		o.MaxIRLS = 25
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	return o
}

// LogSpace returns n logarithmically spaced values from lo to hi
// inclusive.
//
//lint:ignore obsspan trivial grid helper; n is a handful of exp calls
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("gam: invalid LogSpace(%v, %v, %d)", lo, hi, n))
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i < n; i++ {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

func (s Spec) validate(numFeatures int) error {
	if len(s.Terms) == 0 {
		return fmt.Errorf("gam: spec has no terms")
	}
	if s.Link != Identity && s.Link != Logit {
		return fmt.Errorf("gam: unknown link %q", s.Link)
	}
	for i, t := range s.Terms {
		switch t.Kind {
		case Spline, Factor:
			if t.Feature < 0 || t.Feature >= numFeatures {
				return fmt.Errorf("gam: term %d feature %d out of range [0,%d)", i, t.Feature, numFeatures)
			}
		case Tensor:
			if t.Feature < 0 || t.Feature >= numFeatures || t.Feature2 < 0 || t.Feature2 >= numFeatures {
				return fmt.Errorf("gam: term %d tensor features (%d,%d) out of range", i, t.Feature, t.Feature2)
			}
			if t.Feature == t.Feature2 {
				return fmt.Errorf("gam: term %d tensor on a single feature", i)
			}
		default:
			return fmt.Errorf("gam: term %d has unknown kind %q", i, t.Kind)
		}
	}
	return nil
}

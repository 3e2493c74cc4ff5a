// Package shap implements path-dependent TreeSHAP (Lundberg et al.,
// "Consistent Individualized Feature Attribution for Tree Ensembles"),
// the explanation baseline the paper compares GEF against in §5.3.
// Attributions are computed on the forest's raw (margin) score, using the
// per-node training covers recorded in the forest, and satisfy local
// accuracy: Σᵢ φᵢ = f(x) − E[f].
package shap

import (
	"context"
	"math"
	"sort"

	"gef/internal/forest"
	"gef/internal/obs"
	"gef/internal/par"
)

// Metrics instruments (hoisted; see internal/obs): per-instance tree-node
// visits are the TreeSHAP cost driver the ROADMAP's perf PRs will shard.
var (
	mInstances  = obs.Metrics().Counter("shap.instances")
	mNodeVisits = obs.Metrics().Counter("shap.node_visits")
)

// pathElem is one entry of the feature path maintained by the TreeSHAP
// recursion.
type pathElem struct {
	d int     // feature index of the split that created this entry (-1 at root)
	z float64 // fraction of "zero" (feature-absent) paths flowing through
	o float64 // fraction of "one" (feature-present) paths flowing through
	w float64 // proportion of feature subsets of the matching cardinality
}

// Values computes the SHAP attribution vector φ for instance x: one value
// per input feature on the raw-score scale. The base value (expected raw
// score) is returned alongside; f(x)_raw = base + Σ φ.
//
// The walk runs over the forest's flat structure-of-arrays form
// (Forest.Flat): the one a sealed forest carries, or a per-call
// compilation of an unsealed one — batch callers over an unsealed
// forest should compile once and use ValuesFlat.
func Values(f *forest.Forest, x []float64) (phi []float64, base float64) {
	return ValuesFlat(f.Flat(), x)
}

// ValuesFlat is Values over an already-compiled flat forest: the
// recursion reads child indices, thresholds and covers from the flat
// parallel arrays, and each tree's path-dependent expectation E[t] is
// the cover-weighted mean precomputed at compile time (bit-identical to
// the recursive formulation). The arithmetic is unchanged from the
// pointer walk, so attributions are bitwise identical to it.
//
// The feature paths live in one arena per call, laid out as in Lundberg
// et al.'s reference implementation: each recursion level builds its
// path right after its parent's, so the path at depth d (at most d+1
// elements) starts at most d(d+1)/2 elements in, and (D+2)(D+3)/2
// elements cover a max depth D. A call allocates φ and the arena and
// nothing per node.
func ValuesFlat(fl *forest.Flat, x []float64) (phi []float64, base float64) {
	phi = make([]float64, fl.NumFeatures)
	base = fl.BaseScore
	maxDepth := 0
	for t := 0; t < fl.NumTrees; t++ {
		maxDepth = max(maxDepth, fl.TreeMaxDepth(t))
	}
	w := walker{fl: fl, x: x, phi: phi, arena: make([]pathElem, (maxDepth+2)*(maxDepth+3)/2)}
	for t := 0; t < fl.NumTrees; t++ {
		base += fl.TreeMean(t)
		w.recurse(fl.TreeRoot(t), 0, 0, 1, 1, -1)
	}
	mInstances.Inc()
	mNodeVisits.Add(int64(w.visits))
	return phi, base
}

// walker is one ValuesFlat call's recursion state.
type walker struct {
	fl     *forest.Flat
	x, phi []float64
	arena  []pathElem // path segments, one per recursion depth
	visits int
}

// recurse implements Algorithm 2 of Lundberg et al. (2018), 0-indexed,
// over the flat arrays (j is an absolute flat node index). The parent's
// path is arena[off:off+l]; this node's path is built in the segment
// right after it, which has room for l+1 elements.
func (w *walker) recurse(j int32, off, l int, pz, po float64, pi int) {
	w.visits++
	fl := w.fl
	seg := off + l
	m := w.arena[seg : seg+l+1 : seg+l+1]
	copy(m, w.arena[off:off+l])
	extend(m, pz, po, pi)
	if fl.IsLeaf(j) {
		v := fl.Value(j)
		for i := 1; i < len(m); i++ {
			uw := sumUnwoundWeights(m, i)
			w.phi[m[i].d] += uw * (m[i].o - m[i].z) * v
		}
		return
	}
	feat := int(fl.Feature(j))
	hot, cold := fl.Left(j), fl.Right(j)
	if w.x[feat] > fl.Threshold(j) {
		hot, cold = cold, hot
	}
	iz, io := 1.0, 1.0
	if k := findFirst(m, feat); k >= 0 {
		iz, io = m[k].z, m[k].o
		m = unwind(m, k)
	}
	rj := fl.Cover(j)
	w.recurse(hot, seg, len(m), iz*fl.Cover(hot)/rj, io, feat)
	w.recurse(cold, seg, len(m), iz*fl.Cover(cold)/rj, 0, feat)
}

// extend grows the path by its last element: m[:len(m)-1] is the
// parent's path and m[len(m)-1] receives the new (pz, po, pi) fraction
// pair, updating the subset-cardinality weights in place.
func extend(m []pathElem, pz, po float64, pi int) {
	l := len(m) - 1
	w := 0.0
	if l == 0 {
		w = 1
	}
	m[l] = pathElem{d: pi, z: pz, o: po, w: w}
	for i := l - 1; i >= 0; i-- {
		m[i+1].w += po * m[i].w * float64(i+1) / float64(l+1)
		m[i].w = pz * m[i].w * float64(l-i) / float64(l+1)
	}
}

// unwind removes path element i in place, undoing the corresponding
// extend, and returns the shortened path.
func unwind(m []pathElem, i int) []pathElem {
	l := len(m) - 1
	n := m[l].w
	oi, zi := m[i].o, m[i].z
	for j := l - 1; j >= 0; j-- {
		if oi != 0 {
			tmp := m[j].w
			m[j].w = n * float64(l+1) / (float64(j+1) * oi)
			n = tmp - m[j].w*zi*float64(l-j)/float64(l+1)
		} else {
			m[j].w = m[j].w * float64(l+1) / (zi * float64(l-j))
		}
	}
	for j := i; j < l; j++ {
		m[j].d, m[j].z, m[j].o = m[j+1].d, m[j+1].z, m[j+1].o
	}
	return m[:l]
}

// sumUnwoundWeights returns Σ w of the path with element i unwound,
// without materializing the unwound path beyond its weights.
func sumUnwoundWeights(m []pathElem, i int) float64 {
	var total float64
	l := len(m) - 1
	n := m[l].w
	oi, zi := m[i].o, m[i].z
	for j := l - 1; j >= 0; j-- {
		if oi != 0 {
			tmp := n * float64(l+1) / (float64(j+1) * oi)
			total += tmp
			n = m[j].w - tmp*zi*float64(l-j)/float64(l+1)
		} else {
			total += m[j].w * float64(l+1) / (zi * float64(l-j))
		}
	}
	return total
}

func findFirst(m []pathElem, d int) int {
	for i := 1; i < len(m); i++ { // element 0 is the root sentinel (d = -1)
		if m[i].d == d {
			return i
		}
	}
	return -1
}

// Attribution pairs a feature with its SHAP value.
type Attribution struct {
	Feature int
	Value   float64
}

// TopAttributions returns the k attributions with the largest magnitude,
// sorted by decreasing |value|.
//
//lint:ignore obsspan sorts one already-computed attribution vector; Values carries the per-instance instrumentation
func TopAttributions(phi []float64, k int) []Attribution {
	out := make([]Attribution, 0, len(phi))
	for f, v := range phi {
		out = append(out, Attribution{Feature: f, Value: v})
	}
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].Value) > math.Abs(out[b].Value)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// GlobalImportance aggregates local explanations into a global view, as
// the paper describes SHAP being used globally: the mean |φᵢ| over the
// sample for every feature.
func GlobalImportance(f *forest.Forest, sample [][]float64) []float64 {
	_, sp := obs.Start(context.Background(), "shap.global_importance",
		obs.Int("sample", len(sample)), obs.Int("features", f.NumFeatures),
		obs.Int("workers", par.Workers()))
	defer sp.End()
	if len(sample) == 0 {
		return make([]float64, f.NumFeatures)
	}
	// One flat compilation serves every instance in the batch.
	fl := f.Flat()
	// Per-instance TreeSHAP runs are independent: each chunk folds its
	// rows into a partial |φ| sum, and the partials are combined in
	// chunk order (bitwise-stable at any worker count).
	//lint:ignore errdrop background context cannot be canceled
	imp, _ := par.MapReduce(context.Background(), len(sample), 0,
		func(_, lo, hi int) []float64 {
			chunkImp := make([]float64, f.NumFeatures)
			for r := lo; r < hi; r++ {
				phi, _ := ValuesFlat(fl, sample[r])
				for i, v := range phi {
					chunkImp[i] += math.Abs(v)
				}
			}
			return chunkImp
		},
		func(a, b []float64) []float64 {
			for i := range a {
				a[i] += b[i]
			}
			return a
		})
	for i := range imp {
		imp[i] /= float64(len(sample))
	}
	return imp
}

// DependenceSeries returns the SHAP dependence scatter for feature j over
// the sample: pairs (x_j, φ_j), the representation the paper's Figs. 9b
// and 10b plot.
func DependenceSeries(f *forest.Forest, sample [][]float64, j int) (xs, phis []float64) {
	_, sp := obs.Start(context.Background(), "shap.dependence_series",
		obs.Int("sample", len(sample)), obs.Int("feature", j),
		obs.Int("workers", par.Workers()))
	defer sp.End()
	xs = make([]float64, len(sample))
	phis = make([]float64, len(sample))
	fl := f.Flat()
	// Each row writes only its own output slots — parallel with no
	// reduction needed.
	//lint:ignore errdrop background context cannot be canceled
	_ = par.For(context.Background(), len(sample), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			phi, _ := ValuesFlat(fl, sample[i])
			xs[i] = sample[i][j]
			phis[i] = phi[j]
		}
	})
	return xs, phis
}

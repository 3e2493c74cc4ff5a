package gbdt

import (
	"context"
	"math"

	"gef/internal/forest"
	"gef/internal/par"
)

// histBin accumulates gradient statistics for one (feature, bin) cell.
type histBin struct {
	g, h float64
	c    int
}

// histogram is a per-feature collection of histBin slices restricted to
// the candidate features of one tree. features keeps the candidate list
// in its original order so accumulation can be chunked deterministically
// (map iteration order would not be stable).
type histogram struct {
	features []int
	bins     map[int][]histBin // feature → per-bin stats
}

func newHistogram(bd *binnedData, features []int) *histogram {
	h := &histogram{
		features: features,
		bins:     make(map[int][]histBin, len(features)),
	}
	for _, f := range features {
		h.bins[f] = make([]histBin, bd.features[f].numBins())
	}
	return h
}

// accumulate adds the gradient statistics of the given rows to h,
// in parallel over features: each feature's bin slice is written by
// exactly one chunk, and within a feature rows are scanned in order, so
// the result is bitwise identical to a serial scan. On a non-nil error
// (ctx canceled) h is partial and must be discarded.
func (h *histogram) accumulate(ctx context.Context, bd *binnedData, rows []int, grad, hess []float64) error {
	return par.For(ctx, len(h.features), len(h.features), func(_, lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			f := h.features[fi]
			cells := h.bins[f]
			fb := bd.bins[f]
			for _, r := range rows {
				b := fb[r]
				cells[b].g += grad[r]
				cells[b].h += hess[r]
				cells[b].c++
			}
		}
	})
}

// subtractFrom computes h = parent − other in place over parent's storage
// and returns parent. This is the LightGBM histogram-subtraction trick:
// only the smaller child's histogram is built by scanning rows.
func (h *histogram) subtract(other *histogram) {
	for f, cells := range h.bins {
		o := other.bins[f]
		for b := range cells {
			cells[b].g -= o[b].g
			cells[b].h -= o[b].h
			cells[b].c -= o[b].c
		}
	}
}

// splitInfo describes the best split found for a leaf.
type splitInfo struct {
	feature int
	bin     int // split after this bin: rows with bin ≤ this go left
	gain    float64
	valid   bool
}

// growParams are the per-tree growth controls.
type growParams struct {
	numLeaves      int
	minSamplesLeaf int
	minGain        float64
	lambda         float64
	learningRate   float64
}

// leafState tracks one growable leaf during leaf-wise construction.
type leafState struct {
	node       int // index into the output node slice
	start, end int // range in the grower's indices array
	sumG, sumH float64
	hist       *histogram
	best       splitInfo
}

// grower builds one tree leaf-wise.
type grower struct {
	bd         *binnedData
	grad, hess []float64
	features   []int
	p          growParams
	indices    []int
	scratch    []int
	nodes      []forest.Node
	leaves     []*leafState
}

// growTree builds one regression tree on the given row subset against the
// current gradients/hessians and returns it. rows is not retained. ctx
// carries the training span (so histogram chunks are attributed to it)
// and cancellation: a canceled ctx returns its error and no tree.
func growTree(ctx context.Context, bd *binnedData, grad, hess []float64, rows []int, features []int, p growParams) (forest.Tree, error) {
	g := &grower{
		bd:       bd,
		grad:     grad,
		hess:     hess,
		features: features,
		p:        p,
		indices:  append([]int(nil), rows...),
		scratch:  make([]int, len(rows)),
	}
	root := &leafState{node: 0, start: 0, end: len(g.indices)}
	for _, r := range g.indices {
		root.sumG += grad[r]
		root.sumH += hess[r]
	}
	root.hist = newHistogram(bd, features)
	if err := root.hist.accumulate(ctx, bd, g.indices, grad, hess); err != nil {
		return forest.Tree{}, err
	}
	g.findBestSplit(root)
	g.nodes = append(g.nodes, forest.Node{Left: -1, Right: -1, Cover: float64(len(rows))})
	g.leaves = append(g.leaves, root)

	numLeaves := 1
	for numLeaves < p.numLeaves {
		// Pick the growable leaf with the largest gain (leaf-wise policy).
		bestIdx := -1
		for i, l := range g.leaves {
			if l.best.valid && (bestIdx < 0 || l.best.gain > g.leaves[bestIdx].best.gain) {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		if err := g.split(ctx, bestIdx); err != nil {
			return forest.Tree{}, err
		}
		numLeaves++
	}
	// Finalize remaining leaves with shrunken Newton values.
	for _, l := range g.leaves {
		g.nodes[l.node].Value = -l.sumG / (l.sumH + p.lambda) * p.learningRate
	}
	return forest.Tree{Nodes: g.nodes}, nil
}

// findBestSplit scans the leaf's histogram for the highest-gain split.
func (g *grower) findBestSplit(l *leafState) {
	l.best = splitInfo{}
	count := l.end - l.start
	if count < 2*g.p.minSamplesLeaf {
		return
	}
	parentScore := l.sumG * l.sumG / (l.sumH + g.p.lambda)
	for _, f := range g.features {
		cells := l.hist.bins[f]
		nb := len(cells)
		if nb < 2 {
			continue
		}
		var gl, hl float64
		cl := 0
		for b := 0; b < nb-1; b++ {
			gl += cells[b].g
			hl += cells[b].h
			cl += cells[b].c
			if cl < g.p.minSamplesLeaf {
				continue
			}
			cr := count - cl
			if cr < g.p.minSamplesLeaf {
				break
			}
			gr := l.sumG - gl
			hr := l.sumH - hl
			gain := 0.5 * (gl*gl/(hl+g.p.lambda) + gr*gr/(hr+g.p.lambda) - parentScore)
			if gain > g.p.minGain && gain > l.best.gain && !math.IsNaN(gain) {
				l.best = splitInfo{feature: f, bin: b, gain: gain, valid: true}
			}
		}
	}
}

// split converts leaves[idx] into an internal node with two new leaves.
// A non-nil error (ctx canceled) leaves the grower unusable.
func (g *grower) split(ctx context.Context, idx int) error {
	l := g.leaves[idx]
	f, bin := l.best.feature, l.best.bin
	fb := g.bd.bins[f]

	// Stable partition of the leaf's row range: left rows (bin ≤ split bin)
	// first, right rows buffered and copied back after.
	rightBuf := g.scratch[:0]
	writePos := l.start
	for _, r := range g.indices[l.start:l.end] {
		if int(fb[r]) <= bin {
			g.indices[writePos] = r
			writePos++
		} else {
			rightBuf = append(rightBuf, r)
		}
	}
	copy(g.indices[writePos:l.end], rightBuf)
	mid := writePos

	lc := &leafState{start: l.start, end: mid}
	rc := &leafState{start: mid, end: l.end}
	for _, r := range g.indices[lc.start:lc.end] {
		lc.sumG += g.grad[r]
		lc.sumH += g.hess[r]
	}
	rc.sumG = l.sumG - lc.sumG
	rc.sumH = l.sumH - lc.sumH

	// Histogram for the smaller child by scan; larger child by
	// subtraction, reusing the parent's storage.
	small, large := lc, rc
	if lc.end-lc.start > rc.end-rc.start {
		small, large = rc, lc
	}
	small.hist = newHistogram(g.bd, g.features)
	if err := small.hist.accumulate(ctx, g.bd, g.indices[small.start:small.end], g.grad, g.hess); err != nil {
		return err
	}
	large.hist = l.hist
	large.hist.subtract(small.hist)
	l.hist = nil

	// Rewrite the leaf's node as an internal node and append the children.
	// Append first: it may reallocate the node slice, so the parent must
	// be addressed by index afterwards.
	lc.node = len(g.nodes)
	g.nodes = append(g.nodes, forest.Node{Left: -1, Right: -1, Cover: float64(lc.end - lc.start)})
	rc.node = len(g.nodes)
	g.nodes = append(g.nodes, forest.Node{Left: -1, Right: -1, Cover: float64(rc.end - rc.start)})
	node := &g.nodes[l.node]
	node.Feature = f
	node.Threshold = g.bd.threshold(f, bin)
	node.Gain = l.best.gain
	node.Left = lc.node
	node.Right = rc.node

	g.findBestSplit(lc)
	g.findBestSplit(rc)
	g.leaves[idx] = lc
	g.leaves = append(g.leaves, rc)
	return nil
}

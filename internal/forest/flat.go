package forest

import (
	"fmt"
	"math"
	"time"

	"gef/internal/obs"
)

// Flat is a cache-friendly structure-of-arrays compilation of a Forest.
// Every tree's nodes are laid out breadth-first in shared contiguous
// slices with sibling pairs adjacent — each internal node stores a
// single child base kids, its right child, with the left child at
// kids+1 — so one walk step is the fully branchless
//
//	i = kids + (x[feature] <= threshold ? 1 : 0)
//
// where the comparison materializes as a flag byte (UCOMISD+SETcc on
// amd64), never a data-dependent jump: random 50/50 split outcomes cost
// an add, not a ~15-cycle branch mispredict. The traversal-hot fields —
// threshold, feature and kids — are packed into one 16-byte flatNode
// record (under a quarter of the 72-byte Node struct); cold fields (leaf
// value, cover, original node index) stay in separate slices read only
// after walks finish.
//
// Leaves are encoded as arithmetic self-loops: kids = own index − 1 and
// threshold = +Inf, so the select yields le = 1 and the walk stays put —
// which lets the batched kernels advance a whole block of rows for
// exactly the tree's precomputed max depth with no per-step leaf test.
// The one input that breaks the le = 1 invariant is NaN (every float
// comparison is false), so blocks containing NaN rows take the
// early-exit scalar walk instead; both walks route identically and the
// choice depends only on row contents. Kernels walk four rows abreast so
// the four independent node→feature load chains overlap in the pipeline
// instead of serializing on cache latency.
//
// The layout is the tensorized-forest idea (split the node struct into
// parallel arrays, amortize one tree walk over a batch of rows) applied
// to GEF's hot paths: D* labeling, TreeSHAP leaf/cover lookups, PDP
// grids and GBDT raw-score updates all stream these arrays instead of
// walking []Node one row at a time. Because nodes are reordered, Flat
// indices differ from Tree indices; OrigIndex maps back.
//
// A Flat is immutable after compilation and safe for concurrent use.
// Compile assumes a validated forest (Forest.Validate): child indices in
// range and acyclic. A sealed forest carries its own Flat (Forest.Flat),
// so every consumer of that forest shares one compilation.
type Flat struct {
	NumFeatures int
	NumTrees    int
	BaseScore   float64
	Objective   Objective

	nodes    []flatNode // per node: packed traversal-hot record
	value    []float64  // per node: leaf value (internal nodes: 0)
	cover    []float64  // per node: training cover (TreeSHAP weights)
	orig     []int32    // per node: original index within its Tree.Nodes
	offset   []int32    // per tree: first node index; len NumTrees+1
	maxDepth []int32    // per tree: max root-to-leaf depth
	treeMean []float64  // per tree: cover-weighted mean leaf value (E[t])
}

// flatNode is the packed per-node traversal record: 16 bytes, so one
// 64-byte cache line holds four nodes and a 16-leaf tree's 31 nodes fit
// in eight lines.
type flatNode struct {
	threshold float64 // split threshold; +Inf for leaves
	feature   int32   // split feature; 0 for leaves (never decisive)
	kids      int32   // absolute right-child index (left at kids+1); own index − 1 for leaves
}

// rowBlock is the number of rows a batched kernel advances per tree
// walk: large enough to amortize the tree's arrays staying hot in L1,
// small enough that the block's rows and leaf-index scratch stay
// resident too.
const rowBlock = 128

// branchlessDepthCutoff bounds the fixed-depth (leaf-test-free) walk:
// beyond it a pathologically deep tree would make every row pay the
// full depth, so the kernel falls back to an early-exit walk. The
// choice depends only on the tree, never on the data, so it cannot
// affect results.
const branchlessDepthCutoff = 64

// Metrics instruments (hoisted; see internal/obs). Compile cost lands
// in forest.flat_compile_ms; kernel row counts are labeled by kernel so
// the scrape separates leaf assignment from prediction traffic.
var (
	mFlatCompileMs = obs.Metrics().Histogram("forest.flat_compile_ms")
	mFlatCompiles  = obs.Metrics().Counter("forest.flat_compiles")
	mFlatKernel    = obs.Metrics().CounterVec("forest.flat_kernel_rows", "kernel")

	mKernelLeaves  = mFlatKernel.With("leaves")
	mKernelRaw     = mFlatKernel.With("raw")
	mKernelPredict = mFlatKernel.With("predict")
	mKernelAddRaw  = mFlatKernel.With("add_raw")
)

// Compile builds the structure-of-arrays representation of f. It walks
// every node exactly once (plus one explicit-stack depth/mean pass per
// tree) and keeps nothing: Forest.Seal attaches the one compilation a
// sealed forest shares with every consumer.
//
// Within each tree, nodes are re-laid-out breadth-first with each
// internal node's children adjacent (right first, so left = kids+1 —
// matching the le ∈ {0,1} arithmetic select); orig records the original
// in-tree index of every slot.
func Compile(f *Forest) *Flat {
	start := time.Now()
	total := f.NumNodes()
	fl := &Flat{
		NumFeatures: f.NumFeatures,
		NumTrees:    len(f.Trees),
		BaseScore:   f.BaseScore,
		Objective:   f.Objective,
		nodes:       make([]flatNode, total),
		value:       make([]float64, total),
		cover:       make([]float64, total),
		orig:        make([]int32, total),
		offset:      make([]int32, len(f.Trees)+1),
		maxDepth:    make([]int32, len(f.Trees)),
		treeMean:    make([]float64, len(f.Trees)),
	}
	off := int32(0)
	var order []int32 // slot → original index, reused across trees
	for ti := range f.Trees {
		fl.offset[ti] = off
		nodes := f.Trees[ti].Nodes
		// BFS slot assignment: dequeuing an internal node appends its
		// right then left child, so sibling pairs land adjacent and
		// every child slot follows its parent's.
		order = append(order[:0], 0)
		for s := 0; s < len(order); s++ {
			if n := &nodes[order[s]]; !n.IsLeaf() {
				order = append(order, int32(n.Right), int32(n.Left))
			}
		}
		slotOf := make([]int32, len(nodes)) // original index → slot
		for slot, o := range order {
			slotOf[o] = int32(slot)
		}
		for slot, o := range order {
			n := &nodes[o]
			i := off + int32(slot)
			fl.cover[i] = n.Cover
			fl.orig[i] = o
			if n.IsLeaf() {
				fl.nodes[i] = flatNode{threshold: math.Inf(1), kids: i - 1}
				fl.value[i] = n.Value
			} else {
				fl.nodes[i] = flatNode{
					threshold: n.Threshold,
					feature:   int32(n.Feature),
					kids:      off + slotOf[n.Right],
				}
			}
		}
		fl.maxDepth[ti] = int32(treeDepthIter(nodes))
		fl.treeMean[ti] = treeMeanIter(nodes)
		off += int32(len(nodes))
	}
	fl.offset[len(f.Trees)] = off
	mFlatCompileMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	mFlatCompiles.Inc()
	return fl
}

// treeMeanIter computes the cover-weighted mean leaf value of the tree
// by explicit-stack post-order, evaluating the exact expression the
// path-dependent TreeSHAP expectation uses per node —
// (coverL·E_L + coverR·E_R)/cover — so the result is bit-identical to
// the recursive formulation it replaces.
func treeMeanIter(nodes []Node) float64 {
	if len(nodes) == 0 {
		return 0
	}
	e := make([]float64, len(nodes))
	type frame struct {
		i    int32
		post bool
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{0, false})
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &nodes[fr.i]
		if n.IsLeaf() {
			e[fr.i] = n.Value
			continue
		}
		if !fr.post {
			stack = append(stack, frame{fr.i, true},
				frame{int32(n.Left), false}, frame{int32(n.Right), false})
			continue
		}
		l, r := &nodes[n.Left], &nodes[n.Right]
		e[fr.i] = (l.Cover*e[n.Left] + r.Cover*e[n.Right]) / n.Cover
	}
	return e[0]
}

// NumNodes returns the total node count across all trees.
func (fl *Flat) NumNodes() int { return len(fl.nodes) }

// TreeRoot returns the absolute index of tree t's root node.
func (fl *Flat) TreeRoot(t int) int32 { return fl.offset[t] }

// TreeNodes returns the number of nodes in tree t.
func (fl *Flat) TreeNodes(t int) int { return int(fl.offset[t+1] - fl.offset[t]) }

// TreeMaxDepth returns the precomputed max root-to-leaf depth of tree t.
func (fl *Flat) TreeMaxDepth(t int) int { return int(fl.maxDepth[t]) }

// TreeMean returns tree t's cover-weighted mean leaf value — the
// path-dependent E[t] TreeSHAP uses as the per-tree base.
func (fl *Flat) TreeMean(t int) float64 { return fl.treeMean[t] }

// IsLeaf reports whether absolute node i is a leaf. Children are always
// laid out after their parent, so kids < i exactly for leaves (which
// store kids = i−1).
func (fl *Flat) IsLeaf(i int32) bool { return fl.nodes[i].kids < i }

// Feature returns node i's split feature (meaningless for leaves).
func (fl *Flat) Feature(i int32) int32 { return fl.nodes[i].feature }

// Threshold returns node i's split threshold (+Inf for leaves).
func (fl *Flat) Threshold(i int32) float64 { return fl.nodes[i].threshold }

// Left returns node i's absolute left-child index (self for leaves).
func (fl *Flat) Left(i int32) int32 {
	if k := fl.nodes[i].kids; k > i {
		return k + 1
	}
	return i
}

// Right returns node i's absolute right-child index (self for leaves).
func (fl *Flat) Right(i int32) int32 {
	if k := fl.nodes[i].kids; k > i {
		return k
	}
	return i
}

// OrigIndex returns the index node i had within its Tree.Nodes before
// the breadth-first re-layout — the mapping back to pointer-walk space.
func (fl *Flat) OrigIndex(i int32) int32 { return fl.orig[i] }

// Cover returns node i's training cover.
func (fl *Flat) Cover(i int32) float64 { return fl.cover[i] }

// Value returns node i's leaf value (0 for internal nodes).
func (fl *Flat) Value(i int32) float64 { return fl.value[i] }

// Leaf evaluates tree t on x and returns the absolute index of the leaf
// reached (early-exit walk; the batched kernels are the hot path).
func (fl *Flat) Leaf(t int, x []float64) int32 {
	return leafFrom(fl.nodes, fl.offset[t], x)
}

// leafFrom is the early-exit single-row walk from root over the packed
// node records. Left iff x ≤ threshold: the same comparison the pointer
// walk uses, so NaN (every compare false) routes right on both paths —
// this walk, unlike the fixed-depth kernel, is NaN-safe because it stops
// at the leaf instead of relying on the le = 1 self-loop.
func leafFrom(nodes []flatNode, root int32, x []float64) int32 {
	i := root
	for {
		n := &nodes[i]
		k := n.kids
		if k < i {
			return i
		}
		if x[n.feature] <= n.threshold {
			k++
		}
		i = k
	}
}

// RawPredict returns the untransformed additive score for a single row.
func (fl *Flat) RawPredict(x []float64) float64 {
	s := fl.BaseScore
	for t := 0; t < fl.NumTrees; t++ {
		s += fl.value[fl.Leaf(t, x)]
	}
	return s
}

// Predict returns the single-row prediction on the response scale,
// applying the same Sigmoid the pointer path uses for binary forests.
func (fl *Flat) Predict(x []float64) float64 {
	raw := fl.RawPredict(x)
	if fl.Objective == BinaryLogistic {
		return Sigmoid(raw)
	}
	return raw
}

// walkBlock advances one block of rows through tree t, leaving each
// row's leaf index in idx (len(idx) == len(rows)). The fixed-depth
// kernel steps every row exactly maxDepth times, finished rows spinning
// harmlessly on their leaf's self-loop, so the inner loop carries no
// leaf test and no data-dependent branch at all: the ≤-threshold select
// materializes as a flag byte (le ∈ {0,1}) added to the child base.
// Rows advance four abreast in registers — the four walks are
// independent, so their dependent node→feature load chains overlap
// instead of serializing on cache latency. Deep trees (beyond the
// cutoff) and NaN-bearing blocks (which break the leaf self-loop
// invariant, see the Flat doc comment) fall back to the early-exit
// walk, which routes identically. The unroll only reorders independent
// per-row walks, never any floating-point accumulation, so results are
// identical at any block shape.
func (fl *Flat) walkBlock(t int, rows [][]float64, idx []int32, hasNaN bool) {
	root := fl.offset[t]
	nodes := fl.nodes
	d := fl.maxDepth[t]
	if d > branchlessDepthCutoff || hasNaN {
		for r, x := range rows {
			idx[r] = leafFrom(nodes, root, x)
		}
		return
	}
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		x0, x1, x2, x3 := rows[r], rows[r+1], rows[r+2], rows[r+3]
		i0, i1, i2, i3 := root, root, root, root
		for k := d; k > 0; k-- {
			n0 := &nodes[i0]
			le0 := int32(0)
			if x0[n0.feature] <= n0.threshold {
				le0 = 1
			}
			i0 = n0.kids + le0
			n1 := &nodes[i1]
			le1 := int32(0)
			if x1[n1.feature] <= n1.threshold {
				le1 = 1
			}
			i1 = n1.kids + le1
			n2 := &nodes[i2]
			le2 := int32(0)
			if x2[n2.feature] <= n2.threshold {
				le2 = 1
			}
			i2 = n2.kids + le2
			n3 := &nodes[i3]
			le3 := int32(0)
			if x3[n3.feature] <= n3.threshold {
				le3 = 1
			}
			i3 = n3.kids + le3
		}
		idx[r], idx[r+1], idx[r+2], idx[r+3] = i0, i1, i2, i3
	}
	for ; r < len(rows); r++ {
		x := rows[r]
		i := root
		for k := d; k > 0; k-- {
			n := &nodes[i]
			le := int32(0)
			if x[n.feature] <= n.threshold {
				le = 1
			}
			i = n.kids + le
		}
		idx[r] = i
	}
}

// rowsHaveNaN reports whether any coordinate in the block is NaN — the
// one input class the fixed-depth self-loop walk cannot route; such
// blocks take the early-exit walk instead. The scan depends only on row
// contents, so which walk runs can never vary with worker count.
func rowsHaveNaN(rows [][]float64) bool {
	for _, x := range rows {
		for _, v := range x {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

// LeavesBatch evaluates every tree on every row and writes the absolute
// leaf index of row r in tree t to out[r*NumTrees+t]. out must have
// length len(xs)*NumTrees. Rows are processed in fixed-size blocks,
// each block walked tree-by-tree through a reused leaf-index scratch
// buffer, so one tree's arrays serve a whole block of rows before the
// next tree is touched.
func (fl *Flat) LeavesBatch(xs [][]float64, out []int32) {
	if len(out) != len(xs)*fl.NumTrees {
		panic(fmt.Sprintf("forest: LeavesBatch out has length %d, want rows×trees = %d", len(out), len(xs)*fl.NumTrees))
	}
	mKernelLeaves.Add(int64(len(xs)))
	var idx [rowBlock]int32
	nt := fl.NumTrees
	for lo := 0; lo < len(xs); lo += rowBlock {
		hi := min(lo+rowBlock, len(xs))
		rows := xs[lo:hi]
		hasNaN := rowsHaveNaN(rows)
		for t := 0; t < nt; t++ {
			fl.walkBlock(t, rows, idx[:len(rows)], hasNaN)
			for r := range rows {
				out[(lo+r)*nt+t] = idx[r]
			}
		}
	}
}

// RawPredictBatchInto writes the untransformed additive score of each
// row of xs into out (len(out) == len(xs)), running serially — callers
// parallelize over row ranges (Forest.RawPredictBatchCtx). Rows
// accumulate BaseScore then tree values in tree order, the same
// floating-point order as the single-row path, so results are bitwise
// identical to Forest.RawPredict.
func (fl *Flat) RawPredictBatchInto(xs [][]float64, out []float64) {
	mKernelRaw.Add(int64(len(xs)))
	fl.rawBlocks(xs, out, false)
}

// AddRawInto adds each row's additive tree score (without BaseScore) to
// the corresponding out slot — the GBDT incremental raw-score update,
// batched: out[r] += Σ_t t(xs[r]).
func (fl *Flat) AddRawInto(xs [][]float64, out []float64) {
	mKernelAddRaw.Add(int64(len(xs)))
	fl.rawBlocks(xs, out, true)
}

// rawBlocks is the shared raw-score kernel: per block, per tree, walk
// then gather leaf values. add preserves existing out contents (the
// GBDT update); otherwise out is initialized to BaseScore.
func (fl *Flat) rawBlocks(xs [][]float64, out []float64, add bool) {
	var idx [rowBlock]int32
	value := fl.value
	for lo := 0; lo < len(xs); lo += rowBlock {
		hi := min(lo+rowBlock, len(xs))
		rows := xs[lo:hi]
		ob := out[lo:hi]
		if !add {
			for r := range ob {
				ob[r] = fl.BaseScore
			}
		}
		hasNaN := rowsHaveNaN(rows)
		for t := 0; t < fl.NumTrees; t++ {
			fl.walkBlock(t, rows, idx[:len(rows)], hasNaN)
			for r := range ob {
				ob[r] += value[idx[r]]
			}
		}
	}
}

// PredictBatchInto is RawPredictBatchInto with the objective transform
// hoisted out of the per-row accumulation: raw scores are computed for
// the whole range first, then a single pass applies Sigmoid for
// binary-logistic forests (identical per-row arithmetic to the
// single-row Predict).
func (fl *Flat) PredictBatchInto(xs [][]float64, out []float64) {
	mKernelPredict.Add(int64(len(xs)))
	fl.rawBlocks(xs, out, false)
	if fl.Objective == BinaryLogistic {
		for i, v := range out {
			out[i] = Sigmoid(v)
		}
	}
}

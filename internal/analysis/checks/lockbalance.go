package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gef/internal/analysis"
	"gef/internal/analysis/cfg"
)

// Lockbalance is the flow-sensitive mutex audit. The engine artifact
// cache and the obs recorder/registry use hand-balanced Lock/Unlock
// pairs — and a Lock left held on one early-return or panic path
// deadlocks the process only when that path and a second caller race,
// which ordinary tests essentially never arrange.
//
// For every function it runs a forward dataflow over the control-flow
// graph tracking, per mutex expression (m.mu, e.mu — read and write
// sides of an RWMutex separately), whether the lock is held. At the
// exit node a lock that is held on every path is reported as a leak,
// and one held on only some paths as a path imbalance; deferred
// Unlock/RUnlock calls are applied at exit first, since that is where
// the runtime runs them.
//
// Functions whose name contains "lock" (lock/unlock helpers that hand
// a held mutex to their caller by design) are exempt.
var Lockbalance = &analysis.Analyzer{
	Name: "lockbalance",
	Doc:  "flags sync.Mutex/RWMutex locked on a path but not unlocked on every exit",
	Run:  runLockbalance,
}

// lock states form a small join-semilattice per mutex key: absent
// (never touched ≡ released) ⊔ anything = that thing or mixed.
const (
	lockHeld     int8 = 1 // held on every path reaching this point
	lockReleased int8 = 2 // explicitly released (or never acquired)
	lockMixed    int8 = 3 // held on some paths, released on others
)

type lockFact map[string]int8

func lockJoin(a, b lockFact) lockFact {
	out := make(lockFact, len(a)+len(b))
	get := func(m lockFact, k string) int8 {
		if s, ok := m[k]; ok {
			return s
		}
		return lockReleased
	}
	for k := range a {
		out[k] = joinState(get(a, k), get(b, k))
	}
	for k := range b {
		if _, done := out[k]; !done {
			out[k] = joinState(get(a, k), get(b, k))
		}
	}
	return out
}

func joinState(x, y int8) int8 {
	if x == y {
		return x
	}
	return lockMixed
}

func lockEqual(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runLockbalance(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, fn := range funcNodes(f) {
			if isTestFile(pass, fn.node) {
				continue
			}
			// Lock helpers hold by design ("lock", "rlockAll", ...).
			// Strip "block" first so penaltyBlock/newBlock-style names
			// are not mistaken for lock helpers.
			low := strings.ReplaceAll(strings.ToLower(fn.name), "block", "")
			if strings.Contains(low, "lock") {
				continue
			}
			checkLockBalance(pass, fn)
		}
	}
}

// mutexOp classifies one Lock/Unlock-family call on a mutex-typed
// receiver. key distinguishes the read and write side of an RWMutex
// ("e.mu" vs "e.mu/R"), because RLock is balanced by RUnlock only.
type mutexOp struct {
	key     string
	acquire bool
	pos     token.Pos
}

func checkLockBalance(pass *analysis.Pass, fn funcNode) {
	// Cheap pre-scan: functions without an acquire need no dataflow.
	ops := make(map[ast.Node]*mutexOp) // CallExpr → op
	hasAcquire := false
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.node {
			return false // nested closures are separate functions
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op := classifyMutexOp(pass, call); op != nil {
				ops[call] = op
				hasAcquire = hasAcquire || op.acquire
			}
		}
		return true
	})
	if !hasAcquire {
		return
	}

	g := pass.CFG(fn.node)

	// Deferred releases run on every path to exit; collect their keys.
	// A deferred closure body counts too: `defer func() { e.mu.Unlock() }()`.
	deferredRelease := make(map[string]bool)
	for _, d := range g.Defers {
		ast.Inspect(d.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op := classifyMutexOp(pass, call); op != nil && !op.acquire {
					deferredRelease[op.key] = true
				}
			}
			return true
		})
		// The deferred call expression itself: `defer e.mu.Unlock()`.
		if op := classifyMutexOp(pass, d.Call); op != nil && !op.acquire {
			deferredRelease[op.key] = true
		}
	}

	acquirePos := make(map[string]token.Pos) // first acquire per key, for reporting
	transfer := func(blk *cfg.Block, in lockFact) lockFact {
		out := in
		copied := false
		for _, node := range blk.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				op := ops[call]
				if op == nil {
					return true
				}
				if !copied {
					cp := make(lockFact, len(out)+1)
					for k, v := range out {
						cp[k] = v
					}
					out, copied = cp, true
				}
				if op.acquire {
					out[op.key] = lockHeld
					if _, seen := acquirePos[op.key]; !seen {
						acquirePos[op.key] = op.pos
					}
				} else {
					out[op.key] = lockReleased
				}
				return true
			})
		}
		return out
	}

	flow := cfg.Flow[lockFact]{
		Boundary: lockFact{},
		Join:     lockJoin,
		Equal:    lockEqual,
		Transfer: transfer,
	}
	res := flow.Forward(g)
	if !res.Reached[g.Exit.Index] {
		return // no path terminates (infinite loop / select{})
	}

	exit := res.In[g.Exit.Index]
	keys := make([]string, 0, len(exit))
	for k := range exit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if deferredRelease[k] {
			continue
		}
		pos, ok := acquirePos[k]
		if !ok {
			continue // released-only key (unlock helper pattern); nothing held
		}
		switch exit[k] {
		case lockHeld:
			pass.Reportf(pos, "%s is locked here but never unlocked before %s returns; add an Unlock or defer", k, fn.name)
		case lockMixed:
			pass.Reportf(pos, "%s is locked here but not unlocked on every path out of %s (early return or panic leaks the lock)", k, fn.name)
		}
	}
}

// classifyMutexOp returns the op when call is (R)Lock/(R)Unlock on a
// sync.Mutex or sync.RWMutex receiver rooted in a stable identifier
// chain; nil otherwise.
func classifyMutexOp(pass *analysis.Pass, call *ast.CallExpr) *mutexOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return nil
	}
	if !isMutexType(pass.TypeOf(sel.X)) {
		return nil
	}
	key := exprKey(sel.X)
	if key == "" {
		return nil
	}
	if read {
		key += "/R"
	}
	return &mutexOp{key: key, acquire: acquire, pos: call.Pos()}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, possibly
// behind a pointer.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// exprKey flattens a receiver expression into a stable dotted path
// ("e.mu", "s.reg.mu"). Expressions with calls, indexes or anything
// whose identity the analysis cannot track yield "".
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return ""
}

// funcNode is one function-shaped unit of analysis: a declaration or a
// literal, with a printable name.
type funcNode struct {
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
	name string
}

// funcNodes collects every function declaration and literal in f, outer
// first. Literals get the enclosing declaration's name with a "+func"
// suffix for diagnostics.
func funcNodes(f *ast.File) []funcNode {
	var out []funcNode
	var enclosing string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			enclosing = n.Name.Name
			if n.Body != nil {
				out = append(out, funcNode{node: n, body: n.Body, name: n.Name.Name})
			}
		case *ast.FuncLit:
			name := enclosing + "+func"
			if enclosing == "" {
				name = "func literal"
			}
			out = append(out, funcNode{node: n, body: n.Body, name: name})
		}
		return true
	})
	return out
}

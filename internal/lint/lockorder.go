package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer is the repository's only lock-order check: it builds an
// inter-procedural lock-acquisition graph over sync.Mutex/RWMutex fields
// and papi.Mutex values across every loaded package and reports cycles —
// potential deadlocks, found before any schedule runs them.
//
// The dmt consumed-hook inversion that PR 3 worked around with an atomic
// clock mirror is exactly this bug class: package A invokes a registered
// hook while holding its own lock, and the hook implementation calls back
// into an A method that takes the same lock from under the registrant's
// lock. Calls are resolved by the engine's call graph, which follows hook
// calls through func-typed struct fields to every function the codebase
// stores into that field (directly or via a setter parameter), and
// interface calls to the loaded methods that implement them.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "report cycles in the static inter-procedural lock-acquisition " +
		"graph over sync and papi mutexes",
	RunEngine: runLockOrder,
}

// lockKind classifies a method call on a lock value.
type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// lockCalls are the acquire and release methods of the tracked lock
// types, by function key (see funcID).
var lockCalls = map[string]lockKind{
	"sync.Mutex.Lock":                     lockAcquire,
	"sync.Mutex.Unlock":                   lockRelease,
	"sync.RWMutex.Lock":                   lockAcquire,
	"sync.RWMutex.RLock":                  lockAcquire,
	"sync.RWMutex.Unlock":                 lockRelease,
	"sync.RWMutex.RUnlock":                lockRelease,
	"crane/internal/papi.Mutex.Lock":      lockAcquire,
	"crane/internal/papi.Mutex.Unlock":    lockRelease,
	"crane/internal/papi.RWMutex.Lock":    lockAcquire,
	"crane/internal/papi.RWMutex.RLock":   lockAcquire,
	"crane/internal/papi.RWMutex.Unlock":  lockRelease,
	"crane/internal/papi.RWMutex.RUnlock": lockRelease,
}

// classifyLockCall reports whether call is an acquire/release on a tracked
// lock type and returns the lock's identity object.
func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockKind, types.Object) {
	kind := lockCalls[funcID(staticCallee(pass.Info, call))]
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if kind == lockNone || !ok {
		return lockNone, nil
	}
	return kind, rootObjOf(pass.Info, sel.X)
}

// lockEdge records "from held while acquiring to" with a witness position.
type lockEdge struct {
	pos  token.Pos
	pass *Pass
	via  string // call chain note for inter-procedural edges
}

// lockGraph accumulates the universe-wide acquisition graph.
type lockGraph struct {
	eng    *Engine
	passes []*Pass
	// acquired holds the locks each engine node may take, transitively
	// through the calls the engine resolves.
	acquired map[*fnNode]map[types.Object]bool
	edges    map[types.Object]map[types.Object]lockEdge
	// owner qualifies a lock field with its holder's type name for
	// diagnostics (Scheduler.mu rather than just mu).
	owner map[types.Object]string
}

// classify wraps classifyLockCall, recording the receiver's owning type
// name for readable cycle reports.
func (g *lockGraph) classify(pass *Pass, call *ast.CallExpr) (lockKind, types.Object) {
	kind, lock := classifyLockCall(pass, call)
	if lock == nil || g.owner[lock] != "" {
		return kind, lock
	}
	if inner, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr).X.(*ast.SelectorExpr); ok {
		if tv, ok := pass.Info.Types[inner.X]; ok {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				g.owner[lock] = named.Obj().Name()
			}
		}
	}
	return kind, lock
}

// runLockOrder computes every node's acquired-lock set to a fixpoint in
// the engine's SCC order (callees first; the members of a recursion cycle
// iterate together, so none of them settles on a partial set), then walks
// every body once more to record held -> acquired edges.
func runLockOrder(eng *Engine, passes []*Pass) {
	g := &lockGraph{
		eng:      eng,
		passes:   passes,
		acquired: map[*fnNode]map[types.Object]bool{},
		edges:    map[types.Object]map[types.Object]lockEdge{},
		owner:    map[types.Object]string{},
	}
	for _, scc := range eng.order {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				changed = g.scan(eng.fns[key], false) || changed
			}
		}
	}
	for _, scc := range eng.order {
		for _, key := range scc {
			g.scan(eng.fns[key], true)
		}
	}
	g.reportCycles()
}

// scan walks one body in source order, skipping nested literals (nodes
// of their own). It grows the node's acquired set, reporting whether it
// grew, and with edges set records held -> acquired edges for direct
// acquisitions and through every call the engine resolves.
func (g *lockGraph) scan(node *fnNode, edges bool) bool {
	pass := g.passes[node.pkgIx]
	acq := g.acquired[node]
	if acq == nil {
		acq = map[types.Object]bool{}
		g.acquired[node] = acq
	}
	grew := false
	var held []types.Object
	take := func(lock types.Object, pos token.Pos, via string) {
		if !acq[lock] {
			acq[lock] = true
			grew = true
		}
		for _, h := range held {
			if edges && h != lock {
				g.addEdge(h, lock, lockEdge{pos: pos, pass: pass, via: via})
			}
		}
	}
	ast.Inspect(node.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held for the rest of the
			// function; other deferred calls are walked normally.
			if kind, _ := g.classify(pass, n.Call); kind == lockRelease {
				return false
			}
		case *ast.CallExpr:
			switch kind, lock := g.classify(pass, n); {
			case kind == lockNone:
			case lock == nil:
				return true
			case kind == lockAcquire:
				take(lock, n.Pos(), "")
				held = append(held, lock)
				return true
			default:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == lock {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				return true
			}
			for _, callee := range g.eng.callees(g.eng.pkgs[node.pkgIx], n) {
				for l := range g.acquired[callee] {
					take(l, n.Pos(), " via call to "+callee.name)
				}
			}
		}
		return true
	})
	return grew
}

func (g *lockGraph) addEdge(from, to types.Object, e lockEdge) {
	if g.edges[from] == nil {
		g.edges[from] = map[types.Object]lockEdge{}
	}
	if _, ok := g.edges[from][to]; !ok {
		g.edges[from][to] = e
	}
}

// reportCycles finds strongly connected components in the edge graph and
// reports one witness cycle per component.
func (g *lockGraph) reportCycles() {
	// Deterministic node order.
	var nodes []types.Object
	seen := map[types.Object]bool{}
	add := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			nodes = append(nodes, o)
		}
	}
	for from, tos := range g.edges {
		add(from)
		for to := range tos {
			add(to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return g.lockName(nodes[i]) < g.lockName(nodes[j]) })

	reported := map[types.Object]bool{}
	for _, start := range nodes {
		if reported[start] {
			continue
		}
		// BFS for a path back to start.
		type step struct {
			node types.Object
			path []types.Object
		}
		queue := []step{{start, []types.Object{start}}}
		visited := map[types.Object]bool{start: true}
		var cycle []types.Object
		for len(queue) > 0 && cycle == nil {
			cur := queue[0]
			queue = queue[1:]
			var succs []types.Object
			for to := range g.edges[cur.node] {
				succs = append(succs, to)
			}
			sort.Slice(succs, func(i, j int) bool { return g.lockName(succs[i]) < g.lockName(succs[j]) })
			for _, to := range succs {
				if to == start {
					cycle = append(cur.path, start)
					break
				}
				if !visited[to] {
					visited[to] = true
					queue = append(queue, step{to, append(append([]types.Object{}, cur.path...), to)})
				}
			}
		}
		if cycle == nil {
			continue
		}
		for _, n := range cycle {
			reported[n] = true
		}
		var names []string
		for _, n := range cycle {
			names = append(names, g.lockName(n))
		}
		edge := g.edges[cycle[0]][cycle[1]]
		edge.pass.Report(edge.pos,
			"lock-order cycle (potential deadlock): %s%s", strings.Join(names, " -> "), edge.via)
	}
}

// lockName renders a stable, human-readable lock identity.
func (g *lockGraph) lockName(o types.Object) string {
	if o == nil {
		return "?"
	}
	name := o.Name()
	if owner := g.owner[o]; owner != "" {
		name = owner + "." + name
	}
	if o.Pkg() != nil {
		parts := strings.Split(o.Pkg().Path(), "/")
		name = parts[len(parts)-1] + "." + name
	}
	return name
}

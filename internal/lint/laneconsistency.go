package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// LaneConsistencyAnalyzer statically checks the conflict-API discipline
// introduced with parallel execution lanes: a synchronization object bound
// to lane L (papi's NewMutexLane/NewCondLane/NewRWMutexLane, or NewCond,
// which binds to the creating thread's lane) must only be used by threads
// assigned to L. Cross-lane sharing is what the *unbound* NewMutex /
// NewRWMutex constructors are for — they go through the deterministic
// merge — so a lane-bound object reaching another lane's threads is
// conflict-map drift: the declaration says the lanes don't conflict, the
// code says they do. The scheduler panics on such uses at runtime
// (dmt.Thread.assertLane); this analyzer catches them at lint time, the
// way lockorder catches deadlocks before they schedule.
//
// Lane identities are tracked symbolically: a lane is either a constant
// (NewMutexLane(2)) or a variable (NewMutexLane(lane) inside a per-lane
// setup loop). A use is flagged when the object's binding and the using
// thread's lane are both known and definitely refer to different lanes —
// two unequal constants, or two distinct lane variables. Thread lanes come
// from papi.T.SpawnLane(lane, ...) closures; plain Spawn children inherit
// the spawner's lane, matching the runtime rule. Function values that
// escape (assigned to variables, passed as arguments) run with unknown
// lane and are not checked — the runtime assertion remains the backstop.
var LaneConsistencyAnalyzer = &Analyzer{
	Name: "laneconsistency",
	Doc: "report lane-bound papi sync objects used from threads of a " +
		"different lane (conflict-map drift)",
	Run: runLaneConsistency,
}

// laneVal is a symbolic lane identity: a constant index or the variable
// that holds the lane number.
type laneVal struct {
	known   bool
	isConst bool
	c       int64
	obj     types.Object
}

func (v laneVal) String() string {
	switch {
	case !v.known:
		return "?"
	case v.isConst:
		return fmt.Sprintf("lane %d", v.c)
	default:
		return fmt.Sprintf("lane variable %q", v.obj.Name())
	}
}

// differs reports whether two lane identities are definitely distinct
// lanes. A constant and a variable may coincide at runtime, so mixed
// comparisons are never "different".
func (v laneVal) differs(o laneVal) bool {
	if !v.known || !o.known || v.isConst != o.isConst {
		return false
	}
	if v.isConst {
		return v.c != o.c
	}
	return v.obj != o.obj
}

// laneBinding records where and to which lane an object was bound.
type laneBinding struct {
	lane laneVal
	kind string // "papi.Mutex", "papi.Cond", "papi.RWMutex"
	obj  types.Object
}

// laneOf resolves a lane expression to a symbolic identity.
func laneOf(pass *Pass, e ast.Expr) laneVal {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		if c, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return laneVal{known: true, isConst: true, c: c}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil {
			return laneVal{known: true, obj: obj}
		}
	}
	return laneVal{}
}

// laneWalker carries the enclosing-function lane context through a file
// walk. SpawnLane closure bodies get the spawn's lane; Spawn closure
// bodies inherit; any other function boundary resets to unknown.
type laneWalker struct {
	pass *Pass
	// ctxOf assigns closure literals their thread-lane identity; inherit
	// marks Spawn children (lane of the lexically enclosing thread).
	ctxOf   map[*ast.FuncLit]laneVal
	inherit map[*ast.FuncLit]bool
}

// resolveContexts records the lane context of every Spawn/SpawnLane
// closure argument in the file.
func (w *laneWalker) resolveContexts(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch funcID(staticCallee(w.pass.Info, call)) {
		case papiT + "SpawnLane":
			if len(call.Args) == 3 {
				if lit, isLit := call.Args[2].(*ast.FuncLit); isLit {
					w.ctxOf[lit] = laneOf(w.pass, call.Args[0])
				}
			}
		case papiT + "Spawn":
			if len(call.Args) == 2 {
				if lit, isLit := call.Args[1].(*ast.FuncLit); isLit {
					w.inherit[lit] = true
				}
			}
		}
		return true
	})
}

// walk traverses file depth-first, invoking visit with the thread-lane
// context in force at each node.
func (w *laneWalker) walk(file *ast.File, visit func(n ast.Node, ctx laneVal)) {
	var stack []ast.Node
	context := func() laneVal {
		for i := len(stack) - 1; i >= 0; i-- {
			switch n := stack[i].(type) {
			case *ast.FuncLit:
				if ctx, ok := w.ctxOf[n]; ok {
					return ctx
				}
				if !w.inherit[n] {
					return laneVal{} // escaping closure: unknown thread
				}
			case *ast.FuncDecl:
				return laneVal{}
			}
		}
		return laneVal{}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		visit(n, context())
		return true
	})
}

// papiT prefixes the function keys (see funcID) of papi.T's methods.
const papiT = "crane/internal/papi.T."

// laneMakers maps papi.T constructors to the bound type they make;
// NewCond binds to the creating thread's lane.
var laneMakers = map[string]string{
	papiT + "NewMutexLane":   "papi.Mutex",
	papiT + "NewCondLane":    "papi.Cond",
	papiT + "NewRWMutexLane": "papi.RWMutex",
	papiT + "NewCond":        "papi.Cond",
}

// laneUses are the scheduled operations on the bound papi types, by
// function key.
var laneUses = map[string]bool{
	"crane/internal/papi.Mutex.Lock":      true,
	"crane/internal/papi.Mutex.Unlock":    true,
	"crane/internal/papi.Mutex.TryLock":   true,
	"crane/internal/papi.Cond.Wait":       true,
	"crane/internal/papi.Cond.Signal":     true,
	"crane/internal/papi.Cond.Broadcast":  true,
	"crane/internal/papi.RWMutex.RLock":   true,
	"crane/internal/papi.RWMutex.RUnlock": true,
	"crane/internal/papi.RWMutex.Lock":    true,
	"crane/internal/papi.RWMutex.Unlock":  true,
}

func runLaneConsistency(pass *Pass) {
	w := &laneWalker{
		pass:    pass,
		ctxOf:   map[*ast.FuncLit]laneVal{},
		inherit: map[*ast.FuncLit]bool{},
	}
	for _, file := range pass.Files {
		w.resolveContexts(file)
	}

	// Pass 1: collect lane bindings (uses may lexically precede them).
	bindings := map[types.Object]laneBinding{}
	bindMaker := func(target ast.Expr, rhs ast.Expr, ctx laneVal) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		method := funcID(staticCallee(pass.Info, call))
		kind, isMaker := laneMakers[method]
		if !isMaker {
			return
		}
		var lane laneVal
		if method == papiT+"NewCond" {
			lane = ctx // binds to the creating thread's lane
		} else if len(call.Args) == 1 {
			lane = laneOf(pass, call.Args[0])
		}
		if !lane.known {
			return
		}
		obj := rootObjOf(pass.Info, target)
		if obj == nil {
			return
		}
		bindings[obj] = laneBinding{lane: lane, kind: kind, obj: obj}
	}
	for _, file := range pass.Files {
		w.walk(file, func(n ast.Node, ctx laneVal) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) {
						bindMaker(n.Lhs[i], rhs, ctx)
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) {
						bindMaker(n.Names[i], v, ctx)
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					bindMaker(key, n.Value, ctx)
				}
			}
		})
	}
	if len(bindings) == 0 {
		return
	}

	// Pass 2: check every scheduled operation on a bound object against
	// the thread-lane context it runs in.
	for _, file := range pass.Files {
		w.walk(file, func(n ast.Node, ctx laneVal) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !laneUses[funcID(staticCallee(pass.Info, call))] {
				return
			}
			b, bound := bindings[rootObjOf(pass.Info, sel.X)]
			if !bound || !ctx.known || !b.lane.differs(ctx) {
				return
			}
			reportLaneMismatch(pass, call.Pos(), b, sel.Sel.Name, ctx)
		})
	}
}

func reportLaneMismatch(pass *Pass, pos token.Pos, b laneBinding, method string, ctx laneVal) {
	pass.ReportObj(pos, b.obj,
		"%s %q bound to %s but %s from a thread in %s (conflict-map drift: "+
			"move the use into its lane, or make the object cross-lane with the unbound constructor)",
		b.kind, b.obj.Name(), b.lane, method, ctx)
}

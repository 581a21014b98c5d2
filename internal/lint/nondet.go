package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// NondetAnalyzer flags raw sources of nondeterminism in replicated
// packages. Every construct it reports is one the LD_PRELOAD interposition
// of the original system would have captured and that therefore MUST be
// routed through internal/papi here: raw goroutines, select, sync
// primitives, direct net use, and the package functions and packages of
// the engine's source table (physical time, the environment, math/rand,
// hash/maphash). Map iteration order is detflow's: it follows the order
// out of the loop and through sorts.
var NondetAnalyzer = &Analyzer{
	Name: "nondet",
	Doc: "flag nondeterminism that bypasses the papi interposition layer " +
		"in replicated packages",
	Run: runNondet,
}

// syncEquivalent names the papi replacement for each raw sync type. A
// method of one is looked up by its function key (see funcID) less the
// method name.
var syncEquivalent = map[string]string{
	"sync.Mutex":     "papi.Mutex via T.NewMutex",
	"sync.RWMutex":   "papi.RWMutex via T.NewRWMutex",
	"sync.Cond":      "papi.Cond via T.NewCond",
	"sync.WaitGroup": "papi.T.Spawn + T.Join",
	"sync.Once":      "a papi.Mutex-guarded flag",
	"sync.Map":       "a papi.Mutex-guarded map",
}

func runNondet(pass *Pass) {
	if !pass.Replicated {
		return
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if src, ok := sourcePkgs[path]; ok {
				pass.Report(imp.Pos(), "import of %s is nondeterministic across replicas; use %s", path, src.papi)
			}
			if path == "net" {
				pass.Report(imp.Pos(), "direct net use bypasses the replicated socket layer; use papi.T.Listen and papi.Conn")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Report(n.Pos(), "raw go statement creates a thread outside the DMT schedule; use papi.T.Spawn")
			case *ast.SelectStmt:
				pass.Report(n.Pos(), "select resolves nondeterministically; replicated code must synchronize through papi.Cond/Mutex")
			case *ast.SelectorExpr:
				nondetSelector(pass, n)
			case *ast.CallExpr:
				nondetSyncCall(pass, n)
			}
			return true
		})
	}
}

// nondetSelector flags uses of sync types and the package functions of
// the engine's source table (time.Now, os.Getenv, ...).
func nondetSelector(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	name := pkg.Imported().Path() + "." + sel.Sel.Name
	if eq, ok := syncEquivalent[name]; ok {
		pass.Report(sel.Pos(), "raw %s bypasses the DMT scheduler; use %s", name, eq)
	}
	if src, ok := sourceFuncs[name]; ok {
		pass.Report(sel.Pos(), "%s reads %s, which diverges across replicas; use %s", name, src.reads, src.papi)
	}
}

// nondetSyncCall flags method calls on values of sync types (m.Lock()
// where m is a sync.Mutex field), attaching the finding to the root
// field or variable so one annotation on its declaration covers every
// call site.
func nondetSyncCall(pass *Pass, call *ast.CallExpr) {
	key := funcID(staticCallee(pass.Info, call))
	typ := key[:max(0, strings.LastIndex(key, "."))]
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if eq, tracked := syncEquivalent[typ]; tracked && ok {
		pass.ReportObj(sel.Pos(), rootObjOf(pass.Info, sel.X),
			"call on raw %s is invisible to the DMT scheduler; use %s", typ, eq)
	}
}

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
// primitives, escaping map iteration, direct net use, and the package
// functions and packages of the engine's source table (physical time, the
// environment, math/rand, hash/maphash).
var NondetAnalyzer = &Analyzer{
	Name: "nondet",
	Doc: "flag nondeterminism that bypasses the papi interposition layer " +
		"in replicated packages",
	Run: runNondet,
}

// syncEquivalent names the papi replacement for each raw sync type.
var syncEquivalent = map[string]string{
	"Mutex":     "papi.Mutex via T.NewMutex",
	"RWMutex":   "papi.RWMutex via T.NewRWMutex",
	"Cond":      "papi.Cond via T.NewCond",
	"WaitGroup": "papi.T.Spawn + T.Join",
	"Once":      "a papi.Mutex-guarded flag",
	"Map":       "a papi.Mutex-guarded map",
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
			case *ast.RangeStmt:
				nondetMapRange(pass, file, n)
			}
			return true
		})
	}
}

// nondetSelector flags uses of sync types, sync-type method calls, and
// the package functions of the engine's source table (time.Now,
// os.Getenv, ...).
func nondetSelector(pass *Pass, sel *ast.SelectorExpr) {
	// Package-qualified references: sync.Mutex, time.Now, os.Getenv.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			name := pkg.Imported().Path() + "." + sel.Sel.Name
			if eq, ok := syncEquivalent[sel.Sel.Name]; ok && pkg.Imported().Path() == "sync" {
				pass.Report(sel.Pos(), "raw %s bypasses the DMT scheduler; use %s", name, eq)
			}
			if src, ok := sourceFuncs[name]; ok {
				pass.Report(sel.Pos(), "%s reads %s, which diverges across replicas; use %s", name, src.reads, src.papi)
			}
			return
		}
	}
	// Method calls on values of sync types (m.Lock() where m is a
	// sync.Mutex field): attach the finding to the root field/var so one
	// annotation on its declaration covers every call site.
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return
	}
	if _, tracked := syncEquivalent[named.Obj().Name()]; !tracked {
		return
	}
	pass.ReportObj(sel.Pos(), rootObject(pass, sel.X),
		"call on raw sync.%s is invisible to the DMT scheduler; use %s",
		named.Obj().Name(), syncEquivalent[named.Obj().Name()])
}

// rootObject resolves the field or variable at the base of a selector
// chain (s.stateMu -> the stateMu field object).
func rootObject(pass *Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.Info.Uses[e]
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	case *ast.ParenExpr:
		return rootObject(pass, e.X)
	case *ast.UnaryExpr:
		return rootObject(pass, e.X)
	}
	return nil
}

// nondetMapRange flags ranges over maps whose nondeterministic iteration
// order can escape the loop (writes to outer state, output calls, sends,
// returns). The sorted-keys idiom — the body only appends keys to one
// outer slice that is sorted right after the loop — is recognized and
// allowed.
func nondetMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if sortedKeysIdiom(pass, file, rng) {
		return
	}
	escapes := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := rootObject(pass, lhs); obj != nil && declaredOutside(pass, obj, rng) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			escapes = true
		case *ast.ReturnStmt:
			escapes = true
		case *ast.CallExpr:
			if outputCall(n) {
				escapes = true
			}
		}
		return true
	})
	if escapes {
		pass.Report(rng.Pos(), "map iteration order is nondeterministic and escapes this loop; iterate over sorted keys")
	}
}

func declaredOutside(pass *Pass, obj types.Object, rng *ast.RangeStmt) bool {
	pos := obj.Pos()
	return pos.IsValid() && (pos < rng.Pos() || pos > rng.End())
}

// outputCall reports calls that plausibly externalize data (socket sends,
// buffer/file writes, formatted output).
func outputCall(call *ast.CallExpr) bool {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	case *ast.Ident:
		name = fn.Name
	default:
		return false
	}
	switch name {
	case "Send", "Write", "WriteString", "WriteByte", "WriteRune",
		"Fprintf", "Fprint", "Fprintln", "Printf", "Print", "Println",
		"Encode", "Append", "AppendBatch":
		return true
	}
	return false
}

// sortedKeysIdiom recognizes
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)              // or sort.Slice/slices.Sort*
//
// where the append target is sorted by a statement following the loop in
// the same block.
func sortedKeysIdiom(pass *Pass, file *ast.File, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	target := rootObject(pass, assign.Lhs[0])
	if target == nil {
		return false
	}
	// Look for a later sort call over the same object anywhere in the
	// enclosing function.
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pass.Info.Uses[pkg].(*types.PkgName); !ok ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		if !strings.HasPrefix(sel.Sel.Name, "Sort") && !strings.HasPrefix(sel.Sel.Name, "Strings") &&
			!strings.HasPrefix(sel.Sel.Name, "Slice") && !strings.HasPrefix(sel.Sel.Name, "Ints") {
			return true
		}
		for _, arg := range call.Args {
			if rootObject(pass, arg) == target {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

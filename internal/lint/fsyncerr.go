package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FsyncErrAnalyzer flags dropped or shadowed errors on durability paths:
// wal.Log Append/AppendBatch/Sync/Truncate/Close, and os.File Sync /
// Close-after-write. A commit that survives only until the page cache is
// not a commit — §5.1's durability argument rests on these errors being
// observed.
var FsyncErrAnalyzer = &Analyzer{
	Name: "fsyncerr",
	Doc:  "flag dropped or shadowed errors on WAL/commit durability paths",
	Run:  runFsyncErr,
}

// durabilityFuncs are the durability operations whose error must be
// observed, by function key (see funcID).
var durabilityFuncs = map[string]bool{
	"crane/internal/wal.Log.Append":        true,
	"crane/internal/wal.Log.AppendBatch":   true,
	"crane/internal/wal.Log.Sync":          true,
	"crane/internal/wal.Log.TruncateFrom":  true,
	"crane/internal/wal.Log.CompactBefore": true,
	"crane/internal/wal.Log.Close":         true,
	"os.File.Sync":                         true,
	"os.File.Close":                        true,
}

// durabilityCall reports whether call is a durability operation, with a
// short label for diagnostics.
func durabilityCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) (string, bool) {
	callee := staticCallee(pass.Info, call)
	switch key := funcID(callee); {
	case !durabilityFuncs[key]:
		return "", false
	case key != "os.File.Close":
		return shortName(callee), true
	}
	// Close errors only matter after writes: a failed close on a read path
	// loses nothing durable.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && writesToReceiver(pass, fn, rootObjOf(pass.Info, sel.X)) {
		return "os.File.Close (write path)", true
	}
	return "", false
}

// writesToReceiver reports whether fn also performs a write-like call
// (Write*, Sync, Truncate) on the same file object, marking it a write
// path.
func writesToReceiver(pass *Pass, fn *ast.FuncDecl, obj types.Object) bool {
	if fn == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteAt", "Truncate", "Sync":
			if rootObjOf(pass.Info, sel.X) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func runFsyncErr(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			runFsyncErrFunc(pass, fn)
		}
	}
}

func runFsyncErrFunc(pass *Pass, fn *ast.FuncDecl) {
	// writePositions: positions of identifiers appearing on assignment
	// LHS, used to classify a variable's next use as read vs overwrite.
	writePositions := map[token.Pos]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if assign, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range assign.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					writePositions[id.Pos()] = true
				}
			}
		}
		return true
	})
	useOf := func(obj types.Object, after token.Pos) (token.Pos, bool /*isWrite*/, bool /*found*/) {
		var positions []token.Pos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() <= after {
				return true
			}
			if pass.Info.Uses[id] == obj || pass.Info.Defs[id] == obj {
				positions = append(positions, id.Pos())
			}
			return true
		})
		if len(positions) == 0 {
			return token.NoPos, false, false
		}
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		return positions[0], writePositions[positions[0]], true
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if label, ok := durabilityCall(pass, fn, call); ok {
					pass.Report(n.Pos(), "%s error dropped: a commit that is not durable is not a commit; check the error", label)
				}
			}
		case *ast.DeferStmt:
			if label, ok := durabilityCall(pass, fn, n.Call); ok {
				pass.Report(n.Pos(), "deferred %s drops the error; close/sync explicitly and check the result", label)
			}
		case *ast.AssignStmt:
			for i := range n.Rhs {
				call, ok := n.Rhs[i].(*ast.CallExpr)
				if !ok {
					continue
				}
				label, ok := durabilityCall(pass, fn, call)
				if !ok {
					continue
				}
				// Locate the error-typed LHS (last result by convention;
				// with a single RHS call, LHS aligns with results).
				var errIdent *ast.Ident
				if len(n.Rhs) == 1 {
					if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok {
						errIdent = id
					}
				} else if id, ok := n.Lhs[i].(*ast.Ident); ok {
					errIdent = id
				}
				if errIdent == nil {
					continue
				}
				if errIdent.Name == "_" {
					pass.Report(n.Pos(), "%s error discarded with _; durability failures must be handled", label)
					continue
				}
				obj := pass.Info.Defs[errIdent]
				if obj == nil {
					obj = pass.Info.Uses[errIdent]
				}
				if obj == nil {
					continue
				}
				next, isWrite, found := useOf(obj, n.End())
				if !found {
					pass.Report(n.Pos(), "%s error assigned to %s but never checked", label, errIdent.Name)
				} else if isWrite {
					pos := pass.Fset.Position(next)
					pass.Report(n.Pos(), "%s error in %s is overwritten at line %d before being checked", label, errIdent.Name, pos.Line)
				}
			}
		}
		return true
	})
}

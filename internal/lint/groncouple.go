package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GroncoupleAnalyzer enforces the group-decoupling discipline of the
// sharded consensus pipeline (ISSUE 10). Fields holding one slot per
// Paxos group — the per-group nodes, WALs, delivery cursors, submit
// channels, decode arenas — are declared with a "//crane:pergroup" marker.
// Indexing such a field is only sound when the index demonstrably IS a
// group id:
//
//   - the key variable of a range over a per-group field (for g, nd :=
//     range r.nodes),
//   - an identifier conventionally carrying a group id (g, gi, gid, grp,
//     h, group, or any *group* name) — parameters and loop counters,
//   - the result of a group-router call (groupForConn, groupOf, GroupOf),
//   - an integer constant (an explicit, reviewable pin, like group 0's
//     node where the proxy takes its cue).
//
// Anything else — a lane index, a connection id, an arbitrary counter —
// is a cross-group read that bypasses the watermark-vector merge: group
// state observed under a foreign index has no ordering relationship with
// the observer's group and is exactly the coupling the merge exists to
// mediate. A deliberate exception carries a
// "//crane:groncouple-ok <reason>" comment on the flagged line.
var GroncoupleAnalyzer = &Analyzer{
	Name: "groncouple",
	Doc:  "flag per-group (//crane:pergroup) state indexed by anything that is not a group id",
	Run:  runGroncouple,
}

// groupIdentNames are the identifier spellings accepted as group ids.
func groncoupleIdentOK(name string) bool {
	switch name {
	case "g", "gi", "gid", "grp", "h", "group":
		return true
	}
	return strings.Contains(strings.ToLower(name), "group")
}

// groncoupleRouters are the call targets whose result is a group id.
func groncoupleRouterOK(call *ast.CallExpr) bool {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return false
	}
	switch name {
	case "groupForConn", "groupOf", "GroupOf":
		return true
	}
	return false
}

func runGroncouple(pass *Pass) {
	// Pass 1: collect the marked field objects and, while walking, the
	// key variables of ranges over them. Object identity makes scope
	// tracking unnecessary: a loop key authorizes exactly the uses that
	// resolve to it.
	marked := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !groncoupleMarked(field) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	if len(marked) == 0 {
		return
	}
	groupVars := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !groncoupleFieldUse(pass, rng.X, marked) {
				return true
			}
			if key, ok := rng.Key.(*ast.Ident); ok && key.Name != "_" {
				if obj := pass.Info.Defs[key]; obj != nil {
					groupVars[obj] = true
				}
			}
			return true
		})
	}
	// Pass 2: validate every index into a marked field.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			if !groncoupleFieldUse(pass, idx.X, marked) {
				return true
			}
			if groncoupleIndexOK(pass, idx.Index, groupVars) {
				return true
			}
			pass.Report(idx.Pos(),
				"per-group field %s indexed by %q, which is not a group id: cross-group reads bypass the watermark-vector merge; index with a group-range key, a router result (groupForConn/groupOf), or an explicit constant",
				exprString(idx.X), exprString(idx.Index))
			return true
		})
	}
}

// groncoupleMarked reports whether a struct field declaration carries the
// //crane:pergroup marker in its doc or trailing comment.
func groncoupleMarked(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "crane:pergroup") {
				return true
			}
		}
	}
	return false
}

// groncoupleFieldUse reports whether expr resolves to one of the marked
// per-group field objects (r.nodes, p.r.subChs, a bare field name inside
// a method, ...).
func groncoupleFieldUse(pass *Pass, expr ast.Expr, marked map[types.Object]bool) bool {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return marked[pass.Info.Uses[x.Sel]]
	case *ast.Ident:
		return marked[pass.Info.Uses[x]]
	}
	return false
}

// groncoupleIndexOK reports whether the index expression demonstrably
// carries a group id.
func groncoupleIndexOK(pass *Pass, index ast.Expr, groupVars map[types.Object]bool) bool {
	index = ast.Unparen(index)
	// Integer constants: explicit, reviewable pins.
	if tv, ok := pass.Info.Types[index]; ok && tv.Value != nil {
		return true
	}
	switch x := index.(type) {
	case *ast.Ident:
		if groncoupleIdentOK(x.Name) {
			return true
		}
		return groupVars[pass.Info.Uses[x]]
	case *ast.CallExpr:
		return groncoupleRouterOK(x)
	}
	return false
}

// exprString renders a short source-ish form of simple expressions for
// diagnostics.
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.BasicLit:
		return x.Value
	case *ast.BinaryExpr:
		return exprString(x.X) + x.Op.String() + exprString(x.Y)
	}
	return "<expr>"
}

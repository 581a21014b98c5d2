package lint

import (
	"go/ast"
	"go/types"
)

// ObsRegAnalyzer enforces the nil-registry-safe instrumentation pattern of
// internal/obs: instruments are created once at setup (Registry.Counter /
// Gauge / Histogram / ...) and observed through nil-safe methods on the
// returned handle. Creating an instrument at observation time — chained
// `reg.Counter(...).Inc()` or registration inside a loop — re-enters the
// registry's lock on every observation and silently registers duplicates;
// it defeats the two-atomic-adds hot-path budget the registry is built
// around.
var ObsRegAnalyzer = &Analyzer{
	Name: "obsreg",
	Doc: "flag instrument registration on observation hot paths (chained " +
		"create-and-observe, creation inside loops) and allocating flight-" +
		"journal annotations in determinism hot loops",
	Run: runObsReg,
}

// flightHot reports whether the package is held to the flight recorder's
// zero-alloc journaling discipline: the DMT scheduler and the sequence
// layer emit an event per scheduler turn / consumed call, so the
// allocating Journal.Note path (detail string, annotation entry) is
// banned inside their loops — Journal.Emit is the fixed-arity fast path.
func flightHot(pass *Pass) bool {
	path := pass.Pkg.Path()
	return path == "crane/internal/dmt" || path == "crane/internal/seq"
}

// journalNote reports whether call invokes flight.Journal.Note.
func journalNote(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Note" {
		return false
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "crane/internal/obs/flight" {
		return false
	}
	return named.Obj().Name() == "Journal"
}

// registryCreation reports whether call registers a new instrument on
// *obs.Registry.
func registryCreation(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "crane/internal/obs" {
		return "", false
	}
	if named.Obj().Name() != "Registry" {
		return "", false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "GaugeFunc", "Histogram", "ValueHistogram":
		return "Registry." + sel.Sel.Name, true
	}
	return "", false
}

func runObsReg(pass *Pass) {
	hot := flightHot(pass)
	for _, file := range pass.Files {
		// loopDepth tracks whether the current node sits inside a loop.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if hot && journalNote(pass, call) {
				for _, anc := range stack[:len(stack)-1] {
					switch anc.(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						pass.Report(call.Pos(),
							"Journal.Note inside a determinism hot loop allocates per event; use the fixed-arity Journal.Emit fast path or hoist the annotation out of the loop")
						return true
					}
				}
				return true
			}
			label, ok := registryCreation(pass, call)
			if !ok {
				return true
			}
			// Chained create-and-observe: the creation is the receiver of
			// an immediately invoked method (parent chain is
			// SelectorExpr -> CallExpr).
			if len(stack) >= 3 {
				if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.X == call {
					if outer, ok := stack[len(stack)-3].(*ast.CallExpr); ok && outer.Fun == sel {
						pass.Report(call.Pos(),
							"%s(...).%s registers an instrument at observation time; create the instrument once at setup and reuse the handle (nil-safe)",
							label, sel.Sel.Name)
						return true
					}
				}
			}
			for _, anc := range stack[:len(stack)-1] {
				switch anc.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					pass.Report(call.Pos(),
						"%s inside a loop re-registers an instrument per iteration; hoist creation out of the loop", label)
					return true
				}
			}
			return true
		})
	}
}

package lint

import "go/ast"

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

// journalNote is the allocating flight-journal annotation, by function
// key (see funcID).
const journalNote = "crane/internal/obs/flight.Journal.Note"

// registryCreations are the *obs.Registry methods that register a new
// instrument, by function key.
var registryCreations = map[string]bool{
	"crane/internal/obs.Registry.Counter":        true,
	"crane/internal/obs.Registry.Gauge":          true,
	"crane/internal/obs.Registry.GaugeFunc":      true,
	"crane/internal/obs.Registry.Histogram":      true,
	"crane/internal/obs.Registry.ValueHistogram": true,
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
			callee := staticCallee(pass.Info, call)
			key := funcID(callee)
			if hot && key == journalNote {
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
			if !registryCreations[key] {
				return true
			}
			label := "Registry." + callee.Name()
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

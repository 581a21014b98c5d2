package lint

import "go/ast"

// SpecLeakAnalyzer flags externally visible effects that bypass the
// speculation gate. With Config.Speculation on, code in internal/crane
// runs while a speculative window may be open: the server's outputs must
// route through Replica.emitOutput → speculator.emit so an open window
// can buffer them until its commits confirm. A direct
// simnet.Conn.Write, trace.OutputLog.Record, or wal.Log append from that
// package leaks a possibly-aborted effect to a client, the cross-replica
// output fingerprint, or the durable log — a leak no rollback can recall.
// Those effects are the sinks of the engine's sink table marked gated.
//
// Scope: the crane/internal/crane package. The two legitimate sinks below
// the gate — emitOutput's declined-by-speculator path and the flush path —
// carry "//crane:specleak-ok <reason>" suppressions.
var SpecLeakAnalyzer = &Analyzer{
	Name: "specleak",
	Doc:  "flag client-visible effects in internal/crane that bypass the speculation gate buffer",
	Run:  runSpecLeak,
}

func runSpecLeak(pass *Pass) {
	if pass.Pkg.Path() != "crane/internal/crane" {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if spec := sinkFuncs[funcID(staticCallee(pass.Info, call))]; spec.gated {
				pass.Report(call.Pos(), "%s bypasses the speculation gate: an open window cannot buffer or roll back this effect; route it through Replica.emitOutput, or annotate why no window can be open here", spec.label)
			}
			return true
		})
	}
}

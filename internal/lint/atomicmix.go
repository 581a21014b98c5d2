package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMixAnalyzer keeps atomic words on the typed atomics (atomic.Uint64
// and friends). A word updated through atomic.AddUint64(&s.n, 1) can also
// be read plainly elsewhere, a race seen only when the interleaving fires.
// A typed atomic cannot be read plainly, and go vet's copylocks catches a
// copy of one, so banning the package-level functions is the discipline.
var AtomicMixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc:  "flag address-based sync/atomic calls; atomic words are declared with the typed atomics",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			// AddUint64 -> Uint64, CompareAndSwapPointer -> Pointer[T].
			typ := fn.Name()[max(0, strings.LastIndexAny(fn.Name(), "IUP")):]
			if typ == "Pointer" {
				typ += "[T]"
			}
			pass.Report(call.Pos(), "atomic.%s lets the word be read and written plainly elsewhere; declare it as atomic.%s", fn.Name(), typ)
			return true
		})
	}
}

// Package c is replicated (the tests load it under an internal/apps
// import path) and sinks the laundered label into the output
// fingerprint. nondet sees no raw source anywhere in this package;
// detflow reports the full cross-package chain at the sink.
package c

import (
	"crane/internal/lint/testdata/detflowx/b"
	"crane/internal/trace"
)

var out = trace.NewOutputLog("c")

// Emit records the laundered label.
func Emit() {
	out.Record(1, []byte(b.Tag())) // want `nondeterministic value \(time\.Now at [^)]*a/a\.go[^)]*\) reaches trace\.OutputLog\.Record via a\.Stamp → b\.Tag → c\.Emit`
}

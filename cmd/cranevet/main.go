// Command cranevet runs CRANE's determinism-and-invariant lint suite over
// Go package patterns, the machine-checked substitute for the LD_PRELOAD
// coverage guarantee of the original system (see internal/lint and
// DESIGN.md's "Static analysis" section):
//
//	go run ./cmd/cranevet ./...
//	go build -o cranevet ./cmd/cranevet && ./cranevet ./internal/apps/...
//	./cranevet -format=sarif ./... > cranevet.sarif
//
// Findings print in go-vet format (file:line:col: analyzer: message) by
// default; -format=sarif emits SARIF 2.1.0 for code-scanning upload. Both
// formats list findings in the same deterministic (file, line, column,
// analyzer) order. Exit status 1 means findings, 2 a load or usage error.
// Deliberate escapes are annotated in source with
// "//crane:<analyzer>-ok <reason>". -list prints the nine analyzers; what
// each one catches is pinned per seeded-bug fixture by internal/lint's
// TestDetectionMatrix.
//
// The tool is built only on the standard library's go/ast and go/types
// (no golang.org/x/tools dependency): packages are type-checked from
// source against gc export data produced by `go list -export`.
package main

import (
	"flag"
	"fmt"
	"os"

	"crane/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "output format: text or sarif")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cranevet [-list] [-format=text|sarif] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the CRANE determinism/invariant analyzers over the packages\n")
		fmt.Fprintf(os.Stderr, "matched by the given go-list patterns (default ./...).\n")
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cranevet:", err)
		os.Exit(2)
	}
	diags := lint.RunAnalyzers(pkgs, analyzers)
	switch *format {
	case "text":
		err = lint.WriteText(os.Stdout, diags)
	case "sarif":
		err = lint.WriteSARIF(os.Stdout, analyzers, diags)
	default:
		fmt.Fprintf(os.Stderr, "cranevet: unknown -format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cranevet:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cranevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// Package lint is cranevet's static-analysis framework: a small,
// dependency-free equivalent of golang.org/x/tools/go/analysis used to
// machine-check the invariants CRANE's correctness rests on.
//
// The original system gets its coverage guarantee from LD_PRELOAD: *every*
// libc call a replicated server makes is interposed, so no source of
// nondeterminism can bypass the DMT scheduler or the Paxos sequence. A Go
// reproduction has no link-time interposition point — applications promise
// to call internal/papi instead of raw go/sync/time/rand — and an
// unchecked promise is exactly the kind of convention that Determinator
// argues must be system-enforced. The analyzers in this package turn the
// convention into a build-failing check:
//
//   - nondet:    raw goroutines, select, sync, escaping map iteration,
//     direct net dialing, and the sources of the engine's source table
//     (time, math/rand, the environment) in replicated packages
//   - lockorder: a static inter-procedural lock-acquisition graph whose
//     cycles are potential deadlocks (the static companion of
//     internal/analysis.LockOrderChecker)
//   - fsyncerr:  dropped or shadowed errors on WAL/commit durability paths
//   - obsreg:    instrument registration on observation hot paths
//   - laneconsistency: lane-bound papi sync objects (NewMutexLane and
//     friends) used from threads of a different lane — conflict-map drift
//     caught at lint time instead of by the runtime assertion
//   - specleak:  client-visible effects (the gated sinks of the engine's
//     sink table: socket writes, output-log records, WAL appends) in
//     internal/crane that bypass the speculation gate buffer
//   - detflow:   interprocedural taint tracking from nondeterminism
//     sources (time, rand, env, the live DMT clock, map order, select,
//     pointer formatting, unseeded hashing) to determinism sinks (seq
//     wire, DMT schedule, speculation gate, WAL payloads, output log,
//     client sockets)
//   - atomicmix: words accessed both through sync/atomic and with plain
//     loads/stores — the lock-free mirror discipline, checked suite-wide
//   - groncouple: "//crane:pergroup" fields indexed by anything but a
//     group id
//
// engine.go holds what the analyzers share: the one call graph (detflow
// and lockorder walk it), and the one table of sources and sinks (detflow,
// nondet and specleak read it).
//
// Suppression: a finding may be deliberately accepted with a
// "//crane:<analyzer>-ok <reason>" comment on the flagged line, the line
// above it, or the declaration line of the object the finding is about
// (so annotating a field declaration covers every use of that field).
// A suppression on a declaration also covers findings inside closures
// declared within that declaration's span, so annotating a harness
// helper covers the measurement closure it returns. The reason is
// mandatory.
//
// Scope is the import path alone: a package is "replicated" — and
// subject to nondet — if its import path is under crane/internal/apps.
// Test files are never analyzed (the loader reads only GoFiles), and
// client harness code inside replicated packages is exempted
// line-by-line via annotations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Exactly one of Run, RunSuite, and
// RunEngine is set: Run analyzes a single package; RunSuite analyzes the
// whole loaded universe at once (needed for atomic-mix analysis);
// RunEngine additionally receives the shared interprocedural engine (see
// engine.go), built once per RunAnalyzers invocation however many
// analyzers ride it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// RunSuite receives every loaded package; diagnostics are reported
	// through any one of the passes (they share a collector).
	RunSuite func([]*Pass)
	// RunEngine receives the shared interprocedural engine plus the
	// per-package passes, in the same order as the loaded packages.
	RunEngine func(*Engine, []*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Replicated reports whether this package is held to the papi
	// discipline (see package doc).
	Replicated bool

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// related is the declaration position of the object the finding is
	// about (zero if none); suppression comments there also apply.
	related token.Position
}

// String formats the finding the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.reportRelated(pos, token.NoPos, format, args...)
}

// ReportObj records a finding at pos about object obj; a suppression
// comment at obj's declaration also silences it.
func (p *Pass) ReportObj(pos token.Pos, obj types.Object, format string, args ...any) {
	rel := token.NoPos
	if obj != nil {
		rel = obj.Pos()
	}
	p.reportRelated(pos, rel, format, args...)
}

// reportRelatedPosition records a finding whose suppression anchor is an
// already-resolved position — used by engine-based analyzers whose source
// witness may live in another package than the sink (annotating the
// source line silences every finding it fans out to).
func (p *Pass) reportRelatedPosition(pos token.Pos, rel token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		related:  rel,
	})
}

func (p *Pass) reportRelated(pos, rel token.Pos, format string, args ...any) {
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	if rel.IsValid() {
		d.related = p.Fset.Position(rel)
	}
	*p.diags = append(*p.diags, d)
}

// suppressionRe matches "//crane:<analyzer>-ok <reason>".
var suppressionRe = regexp.MustCompile(`//\s*crane:([a-z]+)-ok(.*)$`)

// suppressions indexes the "//crane:<analyzer>-ok" comments of one package
// by (filename, line) for each analyzer name.
type suppressions map[string]map[int]string // file -> line -> analyzer names (space-joined)

func collectSuppressions(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressionRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					report(Diagnostic{
						Analyzer: m[1],
						Pos:      pos,
						Message:  fmt.Sprintf("crane:%s-ok suppression requires a reason", m[1]),
					})
					continue
				}
				lines := sup[pos.Filename]
				if lines == nil {
					lines = map[int]string{}
					sup[pos.Filename] = lines
				}
				lines[pos.Line] += " " + m[1]
			}
		}
	}
	return sup
}

func (s suppressions) covers(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		if strings.Contains(lines[l], analyzer) {
			return true
		}
	}
	return false
}

// replicated reports whether a package is subject to the papi discipline.
func replicated(path string) bool {
	return path == "crane/internal/apps" || strings.HasPrefix(path, "crane/internal/apps/")
}

// closureSpan is the source span of a function literal declared inside a
// top-level declaration: a suppression comment on the declaration's line
// (or the line above it) also covers findings inside these closures. This
// is what lets one annotation on a harness helper cover the measurement
// closure it returns, instead of re-annotating every line of the closure
// body.
type closureSpan struct {
	file     string
	declLine int // line of the annotated declaration
	from, to int // closure body line range, inclusive
}

func collectClosureSpans(fset *token.FileSet, files []*ast.File) []closureSpan {
	var spans []closureSpan
	for _, f := range files {
		for _, decl := range f.Decls {
			declLine := fset.Position(decl.Pos()).Line
			ast.Inspect(decl, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				start := fset.Position(lit.Pos())
				end := fset.Position(lit.End())
				spans = append(spans, closureSpan{
					file:     start.Filename,
					declLine: declLine,
					from:     start.Line,
					to:       end.Line,
				})
				return true
			})
		}
	}
	return spans
}

// coversClosure reports whether pos falls inside a closure whose
// enclosing declaration carries a suppression for analyzer.
func coversClosure(sup suppressions, spans []closureSpan, analyzer string, pos token.Position) bool {
	for _, s := range spans {
		if s.file != pos.Filename || pos.Line < s.from || pos.Line > s.to {
			continue
		}
		lines := sup[s.file]
		if lines == nil {
			continue
		}
		for _, l := range []int{s.declLine, s.declLine - 1} {
			if strings.Contains(lines[l], analyzer) {
				return true
			}
		}
	}
	return false
}

// Analyzers is the cranevet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NondetAnalyzer, LockOrderAnalyzer, FsyncErrAnalyzer,
		ObsRegAnalyzer, LaneConsistencyAnalyzer, SpecLeakAnalyzer,
		DetflowAnalyzer, AtomicMixAnalyzer, GroncoupleAnalyzer}
}

// SortDiagnostics orders findings by (file, line, column, analyzer,
// message) — a total, position-first order, so repeated runs and CI
// diffs are stable however the analyzers emitted them.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// RunAnalyzers executes the given analyzers over the loaded packages and
// returns unsuppressed findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	perPkgSup := make([]suppressions, len(pkgs))
	var spans []closureSpan
	for i, pkg := range pkgs {
		perPkgSup[i] = collectSuppressions(pkg.Fset, pkg.Files, func(d Diagnostic) {
			all = append(all, d)
		})
		spans = append(spans, collectClosureSpans(pkg.Fset, pkg.Files)...)
	}
	// Merge suppressions once: they are keyed by absolute filename, so
	// cross-package application is safe.
	sup := suppressions{}
	for _, s := range perPkgSup {
		for file, lines := range s {
			if sup[file] == nil {
				sup[file] = map[int]string{}
			}
			for l, names := range lines {
				sup[file][l] += names
			}
		}
	}
	// The interprocedural engine is shared by every analyzer that rides
	// it; build it once, lazily.
	var eng *Engine
	engine := func() *Engine {
		if eng == nil {
			eng = NewEngine(pkgs)
		}
		return eng
	}
	for _, a := range analyzers {
		var diags []Diagnostic
		passes := make([]*Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				Replicated: replicated(pkg.PkgPath),
				diags:      &diags,
			}
		}
		switch {
		case a.RunEngine != nil:
			a.RunEngine(engine(), passes)
		case a.RunSuite != nil:
			a.RunSuite(passes)
		default:
			for _, p := range passes {
				a.Run(p)
			}
		}
		// Apply suppressions: the flagged line, the line above, the
		// declaration line of the related object, or — for findings
		// inside a closure — the line of the declaration the closure
		// lives in.
		for _, d := range diags {
			if sup.covers(d.Analyzer, d.Pos) {
				continue
			}
			if d.related.IsValid() && sup.covers(d.Analyzer, d.related) {
				continue
			}
			if coversClosure(sup, spans, d.Analyzer, d.Pos) {
				continue
			}
			all = append(all, d)
		}
	}
	SortDiagnostics(all)
	return all
}

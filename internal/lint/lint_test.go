package lint_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"crane/internal/lint"
	"crane/internal/lint/linttest"
)

func testdata(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// runAs checks analyzers against the want comments of the single testdata
// package name, loaded under importPath: a package is in an analyzer's
// scope by its import path alone.
func runAs(t *testing.T, name, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	linttest.RunDirs(t, []string{testdata(t, name)}, []string{importPath}, analyzers...)
}

// TestNondet runs detflow too: the fixture's map-order lines are its.
func TestNondet(t *testing.T) {
	runAs(t, "nondet", "crane/internal/apps/nondet", lint.NondetAnalyzer, lint.DetflowAnalyzer)
}

// TestNondetSkipsUnreplicated verifies the replication scoping: the same
// raw constructs in a package that is not under internal/apps produce no
// findings.
func TestNondetSkipsUnreplicated(t *testing.T) {
	linttest.Run(t, testdata(t, "unreplicated"), lint.NondetAnalyzer)
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, testdata(t, "lockorder"), lint.LockOrderAnalyzer)
}

// TestLockOrderStable runs lockorder repeatedly over one loaded fixture:
// the mutual-recursion cycle must be reported on every run, whatever
// order the analyzer happens to visit functions in.
func TestLockOrderStable(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "lockorder"))
	if err != nil {
		t.Fatal(err)
	}
	const cycle = "lockorder.Rec.a -> lockorder.Rec.x -> lockorder.Rec.a"
	missed := 0
	for i := 0; i < 100; i++ {
		found := false
		for _, d := range lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{lint.LockOrderAnalyzer}) {
			found = found || strings.Contains(d.Message, cycle)
		}
		if !found {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("cycle %s missed on %d of 100 runs", cycle, missed)
	}
}

func TestFsyncErr(t *testing.T) {
	linttest.Run(t, testdata(t, "fsyncerr"), lint.FsyncErrAnalyzer)
}

func TestObsReg(t *testing.T) {
	runAs(t, "obsreg", "crane/internal/seq", lint.ObsRegAnalyzer)
}

func TestLaneConsistency(t *testing.T) {
	linttest.Run(t, testdata(t, "laneconsistency"), lint.LaneConsistencyAnalyzer)
}

func TestSpecLeak(t *testing.T) {
	runAs(t, "specleak", "crane/internal/crane", lint.SpecLeakAnalyzer)
}

// TestSpecLeakSkipsUngated verifies the scoping: the same effect calls in
// a package that is not crane/internal/crane produce no findings.
func TestSpecLeakSkipsUngated(t *testing.T) {
	linttest.Run(t, testdata(t, "specleakout"), lint.SpecLeakAnalyzer)
}

func TestGroncouple(t *testing.T) {
	linttest.Run(t, testdata(t, "groncouple"), lint.GroncoupleAnalyzer)
}

func TestDetflow(t *testing.T) {
	linttest.Run(t, testdata(t, "detflow"), lint.DetflowAnalyzer)
}

// TestDetflowCrossPackage loads the three-package laundering fixture —
// source in a, launderer in b, sink in c — as one universe and checks
// that detflow reports at the sink with the full cross-package chain in
// the message (asserted by the want regexp in c).
func TestDetflowCrossPackage(t *testing.T) {
	dirs := []string{
		testdata(t, "detflowx/a"),
		testdata(t, "detflowx/b"),
		testdata(t, "detflowx/c"),
	}
	paths := []string{
		"crane/internal/lint/testdata/detflowx/a",
		"crane/internal/lint/testdata/detflowx/b",
		"crane/internal/apps/detflowx/c",
	}
	linttest.RunDirs(t, dirs, paths, lint.DetflowAnalyzer)
}

// TestDetflowBeatsNondet is the acceptance case of ISSUE 9: run nondet
// and detflow over the same laundering fixture and show the pattern
// matcher misses what the taint engine catches. nondet analyzes only the
// replicated package c, which contains no raw nondeterminism construct —
// the time.Now sits two packages away — so it finds nothing; detflow
// follows the value and reports at the sink.
func TestDetflowBeatsNondet(t *testing.T) {
	dirs := []string{
		testdata(t, "detflowx/a"),
		testdata(t, "detflowx/b"),
		testdata(t, "detflowx/c"),
	}
	paths := []string{
		"crane/internal/lint/testdata/detflowx/a",
		"crane/internal/lint/testdata/detflowx/b",
		"crane/internal/apps/detflowx/c",
	}
	pkgs, err := lint.LoadDirs(dirs, paths)
	if err != nil {
		t.Fatal(err)
	}
	nondet := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.NondetAnalyzer})
	if len(nondet) != 0 {
		t.Errorf("nondet reported %d findings on the laundering fixture, want 0: %v", len(nondet), nondet)
	}
	detflow := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.DetflowAnalyzer})
	if len(detflow) == 0 {
		t.Fatal("detflow reported no findings on the laundering fixture, want the chain at the sink")
	}
	for _, d := range detflow {
		if !strings.Contains(d.Message, "a.Stamp → b.Tag → c.Emit") {
			t.Errorf("finding lacks the full chain: %s", d)
		}
	}
}

// TestDetflowClockFast pins the live-clock bug: an app clock reading
// dmt.Scheduler.ClockFast behind an interface method, sent to a client.
func TestDetflowClockFast(t *testing.T) {
	runAs(t, "clockfast", "crane/internal/apps/clockfast", lint.DetflowAnalyzer)
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, testdata(t, "atomicmix"), lint.AtomicMixAnalyzer)
}

// TestClosureSuppression checks that a declaration-line annotation covers
// findings inside closures declared within that declaration's span, and
// only there (the unannotated control still fires, asserted by its want).
func TestClosureSuppression(t *testing.T) {
	runAs(t, "closuresup", "crane/internal/apps/closuresup", lint.NondetAnalyzer)
}

// TestAnalyzerList pins the suite: a new analyzer must be added here
// deliberately, and cranevet -list output follows this order.
func TestAnalyzerList(t *testing.T) {
	want := []string{"nondet", "lockorder", "fsyncerr", "obsreg",
		"laneconsistency", "specleak", "detflow", "atomicmix", "groncouple"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

// TestSortDiagnostics pins the deterministic output order: (file, line,
// column, analyzer, message).
func TestSortDiagnostics(t *testing.T) {
	d := func(file string, line, col int, an, msg string) lint.Diagnostic {
		return lint.Diagnostic{
			Analyzer: an,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
		}
	}
	diags := []lint.Diagnostic{
		d("b.go", 1, 1, "nondet", "z"),
		d("a.go", 9, 1, "nondet", "z"),
		d("a.go", 2, 5, "nondet", "z"),
		d("a.go", 2, 5, "detflow", "z"),
		d("a.go", 2, 5, "detflow", "a"),
		d("a.go", 2, 1, "specleak", "z"),
	}
	lint.SortDiagnostics(diags)
	want := []lint.Diagnostic{
		d("a.go", 2, 1, "specleak", "z"),
		d("a.go", 2, 5, "detflow", "a"),
		d("a.go", 2, 5, "detflow", "z"),
		d("a.go", 2, 5, "nondet", "z"),
		d("a.go", 9, 1, "nondet", "z"),
		d("b.go", 1, 1, "nondet", "z"),
	}
	for i := range want {
		if diags[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, diags[i], want[i])
		}
	}
}

// TestFormats checks the two cranevet output formats over one fixed
// finding list: text is the go-vet line format, sarif is a well-formed
// 2.1.0 log whose rule table covers the whole suite in order.
func TestFormats(t *testing.T) {
	diags := []lint.Diagnostic{
		{
			Analyzer: "detflow",
			Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
			Message:  "boom",
		},
	}

	var text bytes.Buffer
	if err := lint.WriteText(&text, diags); err != nil {
		t.Fatal(err)
	}
	if got, want := text.String(), "x.go:3:7: detflow: boom\n"; got != want {
		t.Errorf("text output %q, want %q", got, want)
	}

	var sarif bytes.Buffer
	if err := lint.WriteSARIF(&sarif, lint.Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif.Bytes(), &log); err != nil {
		t.Fatalf("sarif output does not parse: %v\n%s", err, sarif.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("sarif skeleton off: %s", sarif.String())
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cranevet" || len(run.Tool.Driver.Rules) != len(lint.Analyzers()) {
		t.Errorf("sarif rule table off: %s", sarif.String())
	}
	if len(run.Results) != 1 || run.Results[0].RuleID != "detflow" ||
		run.Results[0].Locations[0].PhysicalLocation.Region.StartLine != 3 {
		t.Errorf("sarif results off: %s", sarif.String())
	}
}

// TestSuppressionRequiresReason checks that a reasonless
// //crane:nondet-ok is rejected and does not silence the finding.
func TestSuppressionRequiresReason(t *testing.T) {
	pkgs, err := lint.LoadDirs([]string{testdata(t, "suppress")}, []string{"crane/internal/apps/suppress"})
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.NondetAnalyzer})
	var reasonless, timeNow bool
	for _, d := range diags {
		if strings.Contains(d.Message, "suppression requires a reason") {
			reasonless = true
		}
		if strings.Contains(d.Message, "time.Now reads physical time") {
			timeNow = true
		}
	}
	if !reasonless {
		t.Errorf("reasonless suppression not reported; got %v", diags)
	}
	if !timeNow {
		t.Errorf("reasonless suppression silenced the finding; got %v", diags)
	}
}

// TestLoadRepo ensures the loader handles the real module, including
// packages that import each other.
func TestLoadRepo(t *testing.T) {
	pkgs, err := lint.Load("../..", []string{"./internal/papi", "./internal/wal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || len(p.Files) == 0 {
			t.Errorf("package %s incompletely loaded", p.PkgPath)
		}
	}
}

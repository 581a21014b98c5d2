// Tier-1 smoke test for the cranevet suite: the repository must stay
// clean under its own analyzers. A new raw `go`, sync primitive, time
// read, dropped durability error, laundered nondeterministic value or
// escaping map order (detflow), or address-based sync/atomic call
// (atomicmix) anywhere in the tree fails `go test ./...` the same way it
// fails the dedicated CI step, so the papi discipline cannot regress
// between lint runs. What each analyzer catches is pinned by
// internal/lint's TestDetectionMatrix.
package crane_test

import (
	"testing"

	"crane/internal/lint"
)

func TestCranevetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is not short")
	}
	// The interprocedural analyzers are the teeth of this smoke test;
	// guard against the suite silently losing them.
	names := map[string]bool{}
	for _, a := range lint.Analyzers() {
		names[a.Name] = true
	}
	for _, required := range []string{"nondet", "detflow", "atomicmix"} {
		if !names[required] {
			t.Fatalf("analyzer suite lost %q", required)
		}
	}
	pkgs, err := lint.Load(".", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags := lint.RunAnalyzers(pkgs, lint.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("cranevet found %d violation(s); fix them or annotate with //crane:<analyzer>-ok <reason>", len(diags))
	}
}

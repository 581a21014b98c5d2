package lint_test

import (
	"fmt"
	"testing"

	"crane/internal/lint"
)

// TestDetectionMatrix runs the whole suite over one seeded-bug fixture
// per bug class and pins which analyzers fire on each, and how often. A
// row is the analyzer → finding count map of one fixture; analyzers that
// stay silent are absent. Each fixture is loaded under the import path
// its own test uses, since scope is the import path alone.
//
// The rows are diagonal: every fixture is flagged by its own analyzer
// only, so each analyzer is the one check for its bug class. The one
// shared row is nondet's: its map-order line is detflow's, which owns map
// order. A change to an analyzer that makes another one's fixture fire,
// or stops its own from firing, shows up here as a changed row.
func TestDetectionMatrix(t *testing.T) {
	apps := "crane/internal/apps/"
	rows := []struct {
		dirs, paths []string
		want        map[string]int
	}{
		{[]string{"nondet"}, []string{apps + "nondet"}, map[string]int{"nondet": 10, "detflow": 1}},
		{[]string{"unreplicated"}, []string{"unreplicated"}, map[string]int{}},
		{[]string{"lockorder"}, []string{"lockorder"}, map[string]int{"lockorder": 2}},
		{[]string{"fsyncerr"}, []string{"fsyncerr"}, map[string]int{"fsyncerr": 7}},
		{[]string{"obsreg"}, []string{"crane/internal/seq"}, map[string]int{"obsreg": 5}},
		{[]string{"laneconsistency"}, []string{"laneconsistency"}, map[string]int{"laneconsistency": 8}},
		{[]string{"specleak"}, []string{"crane/internal/crane"}, map[string]int{"specleak": 4}},
		{[]string{"groncouple"}, []string{"groncouple"}, map[string]int{"groncouple": 3}},
		{[]string{"detflow"}, []string{"detflow"}, map[string]int{"detflow": 7}},
		{
			[]string{"detflowx/a", "detflowx/b", "detflowx/c"},
			[]string{
				"crane/internal/lint/testdata/detflowx/a",
				"crane/internal/lint/testdata/detflowx/b",
				apps + "detflowx/c",
			},
			map[string]int{"detflow": 1},
		},
		{[]string{"clockfast"}, []string{apps + "clockfast"}, map[string]int{"detflow": 1}},
		{[]string{"atomicmix"}, []string{"atomicmix"}, map[string]int{"atomicmix": 4}},
	}
	for _, row := range rows {
		dirs := make([]string, len(row.dirs))
		for i, d := range row.dirs {
			dirs[i] = testdata(t, d)
		}
		pkgs, err := lint.LoadDirs(dirs, row.paths)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, d := range lint.RunAnalyzers(pkgs, lint.Analyzers()) {
			got[d.Analyzer]++
		}
		if fmt.Sprint(got) != fmt.Sprint(row.want) {
			t.Errorf("%v: row %v, want %v", row.dirs, got, row.want)
		}
	}
}

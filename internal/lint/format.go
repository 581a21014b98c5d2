package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Output formatting for cranevet. Two formats, one ordering: findings are
// emitted exactly as sorted by SortDiagnostics, so every format is
// byte-stable across runs and diffable in CI.
//
//   - text:  the go-vet line format, for humans and the CI gate
//   - sarif: SARIF 2.1.0, for code-scanning upload (file paths are
//     emitted relative to the working directory with forward slashes,
//     which is what upload annotators expect)

// WriteText writes findings in go-vet format, one per line.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	return nil
}

// SARIF 2.1.0 skeleton — only the fields code-scanning consumers read.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes findings as a one-run SARIF 2.1.0 log. The rule table
// lists every analyzer of the suite (not just the ones that fired), in
// suite order, so ruleIndex is stable across runs.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, diags []Diagnostic) error {
	rules := make([]sarifRule, len(analyzers))
	index := map[string]int{}
	for i, a := range analyzers {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}}
		index[a.Name] = i
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		ix, ok := index[d.Analyzer]
		if !ok {
			// A suppression-syntax diagnostic names the (possibly unknown)
			// analyzer from the comment; park those under index 0's rule id
			// only if it exists, else skip the index.
			ix = 0
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ix,
			Level:     "error",
			Message:   sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(d.Pos.Filename))},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "cranevet", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath makes a finding path relative to the working directory when it
// is underneath it; absolute otherwise.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return rel
}

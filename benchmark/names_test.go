package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the binary's tables must name the same workloads and
// metrics, with the same units, in the same order.
func TestBenchmarkFileMatchesTheBinary(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bf.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the binary", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the binary", len(bf.EndToEnd), len(endToEndMetrics))
	}
	sawSetup := false
	for i, m := range endToEndMetrics {
		f := bf.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit {
			t.Errorf("end-to-end %d: %s (%s) in BENCHMARK.json, %s (%s) in the binary", i, f.Name, f.Unit, m.Name, m.Unit)
		}
		if f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", f.Name, f.Bound)
		}
		if f.Better != "lower" && f.Better != "higher" {
			t.Errorf("%s: better = %q", f.Name, f.Better)
		}
		sawSetup = sawSetup || (f.Name == "setup_s" && f.Unit == "s" && f.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary", len(bf.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range perLayerMetrics {
		if f := bf.PerLayer[i]; f.Name != m.Name || f.Unit != m.Unit {
			t.Errorf("per-layer %d: %s (%s) in BENCHMARK.json, %s (%s) in the binary", i, f.Name, f.Unit, m.Name, m.Unit)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// Every name the binary prints, on the metric lines and in the result
// line, must be one BENCHMARK.json lists for that kind of run.
func TestEmitPrintsExactlyTheListedNames(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("mysql_oltp")
	for _, traced := range []bool{false, true} {
		want := map[string]bool{}
		if traced {
			for _, m := range bf.PerLayer {
				want[m.Name] = true
			}
		} else {
			for _, m := range bf.EndToEnd {
				want[m.Name] = true
			}
		}
		rep := newReport(w, options{workload: w.name, seed: 1, seconds: 1, traced: traced})
		phase := &phaseResult{name: "open", elapsed: time.Second,
			marks: []mark{{time.Unix(0, 0), 0}, {time.Unix(1, 0), time.Second}}}
		for i := 0; i < 200; i++ {
			at := int64(i) * 1e6
			phase.spans = append(phase.spans, span{ID: i, Due: at, Dial: at, Dialed: at, Written: at, First: at + 1e6, Done: at + 2e6})
		}
		rep.add(phase)
		rep.baseline, rep.closed, rep.open, rep.setups = phase, []*phaseResult{phase}, []*phaseResult{phase}, []float64{1}
		var out bytes.Buffer
		rep.emit(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		printed := map[string]bool{}
		for _, ln := range lines {
			if f := strings.Fields(ln); len(f) == 4 && f[0] == "metric" {
				printed[f[1]] = true
			}
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("traced=%v: last line is not the result object: %v", traced, err)
		}
		for name := range res.Metrics {
			if !printed[name] {
				t.Errorf("traced=%v: %s is in the result line but on no metric line", traced, name)
			}
		}
		for name := range printed {
			if !want[name] {
				t.Errorf("traced=%v: printed %s, which BENCHMARK.json does not list", traced, name)
			}
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("traced=%v: %s is on a metric line but not in the result line", traced, name)
			}
		}
		for name := range want {
			if !printed[name] {
				t.Errorf("traced=%v: BENCHMARK.json lists %s, the binary did not print it", traced, name)
			}
		}
	}
}

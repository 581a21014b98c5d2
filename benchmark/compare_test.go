package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", tight, tight, "lower", "same"},
		{"latency up 20%", tight, scale(tight, 1.2), "lower", "worse"},
		{"latency down 20%", tight, scale(tight, 0.8), "lower", "same"},
		{"throughput down 20%", tight, scale(tight, 0.8), "higher", "worse"},
		{"throughput up 20%", tight, scale(tight, 1.2), "higher", "same"},
		{"within the bound", tight, scale(tight, 1.05), "lower", "same"},
		{"spread wider than the bound", noisy, scale(tight, 1.2), "lower", "unresolved"},
		{"no runs", nil, tight, "lower", "missing"},
	} {
		if _, _, _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// compareSets reads bounds from BENCHMARK.json only and prints one row per
// (workload, end-to-end metric).
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, factor float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads() {
			for seed := int64(1); seed <= 10; seed++ {
				res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
				for _, m := range endToEndMetrics {
					v := 100 + float64(seed%3)
					if m.Name == "latency_p50_ms" && w.name == "mysql_oltp" {
						v *= factor
					}
					res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				if err := appendRun(path, runRecord{Workload: w.name, Seed: seed, Result: res}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, b := mk("a.jsonl", 1), mk("b.jsonl", 1.5)
	var out bytes.Buffer
	if err := compareSets(&out, filepath.Join("..", "BENCHMARK.json"), a, a); err != nil {
		t.Errorf("a set against itself: %v\n%s", err, out.String())
	}
	rows := strings.Count(out.String(), "\n") - 2
	if want := len(workloads()) * len(endToEndMetrics); rows != want {
		t.Errorf("%d rows, want %d:\n%s", rows, want, out.String())
	}
	out.Reset()
	err := compareSets(&out, filepath.Join("..", "BENCHMARK.json"), a, b)
	if err == nil || strings.Count(out.String(), "worse") != 1 {
		t.Errorf("a 50%% slower p50 on one workload: err %v\n%s", err, out.String())
	}
	if _, err := os.Stat(a); err != nil {
		t.Fatal(err)
	}
}

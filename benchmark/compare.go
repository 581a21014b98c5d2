package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// runRecord is one run in a -out set file (JSONL).
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRun(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

func readSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// benchmarkFile is the part of BENCHMARK.json the tool reads: the
// workloads and the end-to-end metrics with their directions and bounds.
// The bounds live there and nowhere else.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// verdict judges set B against set A on one metric: "worse" when B's
// median is worse than A's by more than the bound, "unresolved" when
// either set's own quartile spread is wider than the bound (the sets
// cannot tell a regression of that size from noise), else "same".
func verdict(a, b []float64, better string, bound float64) (ratio, spreadA, spreadB float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	spreadA, spreadB = quartileSpread(a), quartileSpread(b)
	worsening := ratio - 1
	if better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		v = "missing"
	case spreadA > bound || spreadB > bound:
		v = "unresolved"
	case worsening > bound:
		v = "worse"
	default:
		v = "same"
	}
	return
}

// compareSets prints one row per (workload, end-to-end metric): both
// medians, B/A with A as the base, both spreads, the bound, the verdict.
func compareSets(w io.Writer, benchPath, pathA, pathB string) error {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	collect := func(path string) (map[string]map[string][]float64, error) {
		recs, err := readSet(path)
		if err != nil {
			return nil, err
		}
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, mv := range r.Result.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
			}
		}
		return out, nil
	}
	a, err := collect(pathA)
	if err != nil {
		return err
	}
	b, err := collect(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; ratio = median B / median A; spread = (Q3-Q1)/median\n", pathA, pathB)
	fmt.Fprintf(w, "%-18s %-16s %6s %3s %12s %12s %7s %8s %8s %6s  %s\n",
		"workload", "metric", "better", "n", "median A", "median B", "ratio", "spread A", "spread B", "bound", "verdict")
	worse := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			ratio, sa, sb, v := verdict(va, vb, m.Better, m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-16s %6s %3d %12.4f %12.4f %7.3f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Better, min(len(va), len(vb)), median(va), median(vb), ratio, sa*100, sb*100, m.Bound*100, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	corrupt  bool
	out      string
}

// report accumulates one run: every phase, the checks that failed, and
// the per-layer readings of a traced run.
type report struct {
	w workload
	o options

	phases   []*phaseResult
	baseline *phaseResult
	untraced *phaseResult
	closed   []*phaseResult // one per trial
	open     []*phaseResult // the phases latency_p50/p90 are read from
	controls map[string]*phaseResult
	setups   []float64 // seconds, one per cluster set up

	baseP50, closedP50 float64 // ms: the two sides of overhead_x, set by endToEnd

	failures         []string
	divergenceAlarms int
	samples          map[string][]float64 // per-layer observations, see observe
}

func newReport(w workload, o options) *report {
	return &report{w: w, o: o, controls: map[string]*phaseResult{}, samples: map[string][]float64{}}
}

func (rep *report) add(p *phaseResult) *phaseResult {
	rep.phases = append(rep.phases, p)
	return p
}

// fail records a failed check; it is also logged at once, so a run the
// watchdog later kills still says what went wrong first.
func (rep *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rep.failures = append(rep.failures, msg)
	fmt.Fprintln(os.Stderr, "benchmark: FAIL", msg)
}

// pooled returns f over the completed requests of phases, ascending.
func pooled(phases []*phaseResult, f func(*span) float64) []float64 {
	var out []float64
	for _, p := range phases {
		out = append(out, p.sorted(f)...)
	}
	sort.Float64s(out)
	return out
}

func (rep *report) totals() (attempted, failed int) {
	for _, p := range rep.phases {
		attempted += p.attempted()
		failed += p.failed()
	}
	return
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the metrics a user of the system would see. All are
// read from phases run with tracing off.
func (rep *report) endToEnd() map[string]float64 {
	m := map[string]float64{}
	m["setup_s"] = median(rep.setups)

	var rps, cpuMs []float64
	for _, p := range rep.closed {
		r, c := p.windowRates()
		rps, cpuMs = append(rps, r...), append(cpuMs, c...)
	}
	m["throughput_rps"] = median(rps)
	m["cpu_ms_per_req"] = median(cpuMs)
	var p50s, p90s []float64
	for _, p := range rep.open {
		for _, win := range p.latencyWindows() {
			p50s = append(p50s, rep.pct(win, 0.50, p.name+" window p50"))
			p90s = append(p90s, rep.pct(win, 0.90, p.name+" window p90"))
		}
	}
	m["latency_p50_ms"] = median(p50s)
	m["latency_p90_ms"] = median(p90s)
	if rep.baseline != nil {
		rep.baseP50 = rep.pct(rep.baseline.sorted((*span).latencyMs), 0.50, "baseline p50")
		rep.closedP50 = rep.pct(pooled(rep.closed, (*span).latencyMs), 0.50, "closed p50")
		if rep.baseP50 > 0 {
			m["overhead_x"] = rep.closedP50 / rep.baseP50
		}
	}
	return m
}

// pct is percentile with a refusal turned into a failed run: a run too
// short to support its own metrics must not pass.
func (rep *report) pct(sorted []float64, p float64, what string) float64 {
	v, err := percentile(sorted, p)
	if err != nil {
		rep.fail("%s: %v", what, err)
	}
	return v
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric by name with its unit, the failures, and the
// result line; it reports whether the run was correct.
func (rep *report) emit(w io.Writer) bool {
	defs, values := perLayerMetrics, map[string]float64{}
	if rep.o.traced {
		rep.clientLayer()
		for name, obs := range rep.samples {
			values[name] = median(obs)
		}
	} else {
		defs, values = endToEndMetrics, rep.endToEnd()
	}
	attempted, failed := rep.totals()
	if failed > 0 {
		rep.fail("%d of %d requests failed", failed, attempted)
		for _, p := range rep.phases {
			for _, e := range p.firstErrs {
				rep.fail("  %s", e)
			}
		}
	}

	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", rep.w.name, rep.o.seed, rep.o.seconds, rep.o.traced)
	fmt.Fprintf(w, "deployment: %d replicas, %d client slots, client net %v+%v jitter, consensus hub %v+%v jitter (injected), heartbeat %v, lanes %d, groups %d, speculation %v, wal %s\n",
		replicas, slots, clientLatency, clientJitter, hubLatency, hubJitter, heartbeat,
		rep.w.lanes, rep.w.groups, rep.w.speculation, map[bool]string{false: "off", true: "on without fsync"}[rep.w.wal])
	for _, p := range rep.phases {
		fmt.Fprintf(w, "phase %-14s %6.2fs attempted %5d failed %d\n", p.name, p.elapsed.Seconds(), p.attempted(), p.failed())
	}
	if n := len(pooled(rep.open, (*span).latencyMs)); n > 0 {
		windows := 0
		for _, p := range rep.open {
			windows += len(p.latencyWindows())
		}
		fmt.Fprintf(w, "open-loop latency samples: %d at %g req/s, in %d windows; p50/p90 are medians over the windows\n", n, rep.w.rate, windows)
	}
	if rep.baseP50 > 0 {
		fmt.Fprintf(w, "overhead_x = closed p50 %.4f ms / baseline p50 %.4f ms (un-replicated)\n", rep.closedP50, rep.baseP50)
	}
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v := values[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("metric %s is %v", def.Name, v)
			v = 0
		}
		if !rep.o.traced && v == 0 {
			rep.fail("end-to-end metric %s is 0", def.Name)
		}
		fmt.Fprintf(w, "metric %-36s %14.4f %s\n", def.Name, v, def.Unit)
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	res.Correct = len(rep.failures) == 0
	if rep.o.out != "" {
		if err := appendRun(rep.o.out, runRecord{Workload: rep.w.name, Seed: rep.o.seed, Trace: rep.o.traced, Result: res}); err != nil {
			fmt.Fprintf(w, "FAIL writing %s: %v\n", rep.o.out, err)
			res.Correct = false
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

// writeSpans dumps the generator's spans as JSONL, one request per line.
func (rep *report) writeSpans() (string, error) {
	dir := filepath.Join(scratchRoot, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", rep.w.name, rep.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var werr error
	for _, p := range rep.phases {
		for i := range p.spans {
			if err := enc.Encode(&p.spans[i]); err != nil && werr == nil {
				werr = err
			}
		}
	}
	return path, errors.Join(werr, w.Flush(), f.Close())
}

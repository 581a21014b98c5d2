package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("requests_total", ""); again != c {
		t.Fatal("re-registration did not dedup")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
	r.GaugeFunc("clock", "logical clock", func() float64 { return 42 })
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "")
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	g.Set(3)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments retained values")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram quantiles non-zero")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", "")
	// 100 observations at ~1µs, 10 at ~1ms: p50 must land near 1µs and
	// p99 near 1ms (within the 2x log-bucket resolution).
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 110 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 500*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 < 500*time.Microsecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Mean() <= 0 || h.Sum() <= 0 {
		t.Fatal("mean/sum not positive")
	}
	snap := h.Snapshot()
	if snap.Count != 110 || snap.P50 != p50 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Negative durations clamp to the zero bucket rather than corrupting
	// the distribution.
	h.Observe(-time.Second)
	if h.Count() != 111 {
		t.Fatal("negative observation lost")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("paxos_commits_total", "committed entries").Add(3)
	r.Gauge("proxy_queue_depth", "queued submissions").Set(2)
	r.GaugeFunc("paxos_view", "current view", func() float64 { return 5 })
	h := r.Histogram("wal_fsync_seconds", "fsync latency")
	h.Observe(2 * time.Millisecond)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE paxos_commits_total counter",
		"paxos_commits_total 3",
		"# TYPE proxy_queue_depth gauge",
		"proxy_queue_depth 2",
		"paxos_view 5",
		"# TYPE wal_fsync_seconds histogram",
		`wal_fsync_seconds_bucket{le="+Inf"} 1`,
		"wal_fsync_seconds_count 1",
		// Precomputed quantile gauges ride alongside the cumulative series.
		"# TYPE wal_fsync_seconds_p50 gauge",
		"# TYPE wal_fsync_seconds_p95 gauge",
		"# TYPE wal_fsync_seconds_p99 gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Bucket lines must be cumulative and parseable.
	sc := bufio.NewScanner(strings.NewReader(out))
	var lastCum int64 = -1
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "wal_fsync_seconds_bucket") {
			continue
		}
		var le string
		var n int64
		if _, err := fmt.Sscanf(strings.ReplaceAll(line, `{le="`, " "), "wal_fsync_seconds_bucket %s", &le); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n)
		if n < lastCum {
			t.Fatalf("non-cumulative buckets: %q after %d", line, lastCum)
		}
		lastCum = n
	}
	// Quantile gauges use the same seconds scaling as the buckets: the 2ms
	// observation must render as a sub-second float, not raw nanoseconds.
	sc = bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "wal_fsync_seconds_p50 ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line, "wal_fsync_seconds_p50 %g", &v); err != nil {
			t.Fatalf("bad quantile gauge line %q", line)
		}
		if v <= 0 || v >= 1 {
			t.Fatalf("p50 gauge not in seconds: %q", line)
		}
	}
}

// TestHistogramConcurrency hammers one histogram from many goroutines
// while a scraper reads quantiles and Prometheus output — the
// race-detector test the CI race job runs for the obs package.
func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("concurrent", "")
	c := r.Counter("ops", "")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Quantile(0.99)
				h.Snapshot()
				r.WritePrometheus(io.Discard)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				c.Inc()
			}
		}(w)
	}
	for c.Value() < workers*perWorker {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestTracerRingAndJSONL(t *testing.T) {
	tr := NewTracer(4)
	for i := uint64(1); i <= 6; i++ {
		tr.Record(SpanEvent{Req: i, Stage: StageAdmit, Wall: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events", len(evs))
	}
	if evs[0].Req != 3 || evs[3].Req != 6 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 { // 4 retained events + truncation marker
		t.Fatalf("%d JSONL lines", len(lines))
	}
	if !strings.Contains(lines[0], `"req":3`) || !strings.Contains(lines[0], `"stage":"admit"`) {
		t.Fatalf("line = %s", lines[0])
	}
	// Overflow accounting: 6 events into a 4-ring drops 2, and the dump
	// ends with a truncation marker carrying that count.
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	if lines[4] != `{"truncated":true,"dropped":2}` {
		t.Fatalf("truncation marker = %s", lines[4])
	}
	// A ring that never wrapped emits no marker and reports zero drops.
	full := NewTracer(8)
	full.Record(SpanEvent{Req: 1, Stage: StageAdmit, Wall: 1})
	var b2 bytes.Buffer
	if err := full.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if full.Dropped() != 0 || strings.Contains(b2.String(), "truncated") {
		t.Fatalf("unwrapped ring leaked truncation state: dropped=%d dump=%q", full.Dropped(), b2.String())
	}
	// Wall auto-stamping.
	tr2 := NewTracer(2)
	tr2.Record(SpanEvent{Req: 1, Stage: StageCommit})
	if tr2.Events()[0].Wall == 0 {
		t.Fatal("wall not stamped")
	}
	// Nil tracer is inert.
	var nilT *Tracer
	nilT.Record(SpanEvent{Req: 1})
	if nilT.Len() != 0 || nilT.Events() != nil || nilT.WriteJSONL(io.Discard) != nil {
		t.Fatal("nil tracer not inert")
	}
	if NewTracer(0) != nil {
		t.Fatal("zero-capacity tracer should be nil")
	}
}

func TestTracerBreakdown(t *testing.T) {
	tr := NewTracer(64)
	base := time.Now().UnixNano()
	for req := uint64(1); req <= 5; req++ {
		tr.Record(SpanEvent{Req: req, Stage: StageAdmit, Wall: base})
		tr.Record(SpanEvent{Req: req, Stage: StageProposed, Wall: base + 1000})
		tr.Record(SpanEvent{Req: req, Stage: StageCommit, Wall: base + 11000, Logical: 10})
		tr.Record(SpanEvent{Req: req, Stage: StageConsumed, Wall: base + 21000, Logical: 30})
	}
	rows := tr.Breakdown()
	if len(rows) == 0 {
		t.Fatal("no breakdown rows")
	}
	found := false
	for _, row := range rows {
		if row.From == StageCommit && row.To == StageConsumed {
			found = true
			if row.Count != 5 || row.WallP50 != 10*time.Microsecond || row.LogicalP50 != 20 {
				t.Fatalf("row = %+v", row)
			}
		}
		if row.String() == "" {
			t.Fatal("empty row string")
		}
	}
	if !found {
		t.Fatal("committed->consumed transition missing")
	}
}

func TestHTTPServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Add(9)
	tr := NewTracer(8)
	tr.Record(SpanEvent{Req: 1, Stage: StageAdmit})
	srv, err := StartServer("127.0.0.1:0", r, func() Health {
		// Leads group 0, does not lead group 1, whose log is also further
		// behind: the summary must say not primary, and the worse lag.
		h := Health{Replica: 2, Mode: "crane"}
		h.AddGroup(true, 3, 2, 17, true, 15)
		h.AddGroup(false, 4, 0, 9, true, 2)
		return h
	}, tr, func(w io.Writer) error {
		_, err := io.WriteString(w, `{"meta":"crane-flight-journal","replica":"r2"}`+"\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "hits_total 9") {
		t.Fatalf("/metrics = %q", out)
	}
	health := get("/healthz")
	for _, want := range []string{`"replica":2`, `"view":3`, `"commit_index":17`, `"wal_tail":15`, `"mode":"crane"`} {
		if !strings.Contains(health, want) {
			t.Fatalf("/healthz = %q missing %q", health, want)
		}
	}
	var h Health
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("/healthz = %q: %v", health, err)
	}
	if h.Primary || h.WALLag != 7 || len(h.Groups) != 2 {
		t.Fatalf("/healthz summary %+v: want primary=false (group 1 is led elsewhere), wal_lag=7, 2 groups", h)
	}
	if g := h.Groups; !g[0].Primary || g[0].WALLag != 2 || g[1].Primary || g[1].View != 4 || g[1].CommitIndex != 9 || g[1].WALTail != 2 {
		t.Fatalf("/healthz groups %+v", g)
	}
	var solo Health
	solo.AddGroup(true, 1, 0, 5, false, 0)
	if !solo.Primary || solo.WALLag != 0 || solo.CommitIndex != 5 {
		t.Fatalf("one led group without a WAL: %+v", solo)
	}
	if out := get("/trace"); !strings.Contains(out, `"stage":"admit"`) {
		t.Fatalf("/trace = %q", out)
	}
	if out := get("/journal"); !strings.Contains(out, `"meta":"crane-flight-journal"`) {
		t.Fatalf("/journal = %q", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof cmdline empty")
	}
}

package crane

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestMetricsSnapshot(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	kvRequest(t, c, "m:1", "SET a 1")
	ms := c.ClusterMetrics()
	if len(ms) != 3 {
		t.Fatalf("%d metric rows", len(ms))
	}
	primaries := 0
	for _, m := range ms {
		if m.Primary {
			primaries++
		}
		if m.LogicalClock == 0 {
			t.Fatalf("replica%d clock = 0", m.Replica)
		}
		if m.Threads == 0 {
			t.Fatalf("replica%d threads = 0", m.Replica)
		}
		if m.Seq.ClientCalls == 0 {
			t.Fatalf("replica%d saw no client calls", m.Replica)
		}
		line := m.String()
		if !strings.Contains(line, "seq{") || !strings.Contains(line, "view=") {
			t.Fatalf("String() = %q", line)
		}
	}
	if primaries != 1 {
		t.Fatalf("%d primaries in metrics", primaries)
	}
}

// TestClusterMetricsAcrossViewChange verifies the snapshot stays coherent
// through a primary failure: the killed replica drops out of the rows, a
// single new primary emerges in a higher view, and progress counters keep
// advancing under the new view.
func TestClusterMetricsAcrossViewChange(t *testing.T) {
	c, err := StartCluster(testConfig(ModeCrane), newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	kvRequest(t, c, "vc:1", "SET a 1")

	before := c.ClusterMetrics()
	if len(before) != 3 {
		t.Fatalf("%d rows before failure", len(before))
	}
	var commitBefore uint64
	for _, m := range before {
		if m.Primary {
			commitBefore = m.CommitIdx
		}
	}
	if commitBefore == 0 {
		t.Fatal("primary commit index = 0 after a request")
	}

	oldID, err := c.FailPrimary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Primary(); err != nil {
		t.Fatal(err)
	}
	kvRequest(t, c, "vc:2", "SET b 2")

	after := c.ClusterMetrics()
	if len(after) != 2 {
		t.Fatalf("%d rows after killing replica %d", len(after), oldID)
	}
	primaries := 0
	for _, m := range after {
		if m.Replica == oldID {
			t.Fatalf("killed replica %d still in metrics", oldID)
		}
		if m.Primary {
			primaries++
			if m.View == 0 {
				t.Fatal("new primary still reports view 0")
			}
			if m.CommitIdx <= commitBefore {
				t.Fatalf("commit index did not advance: %d <= %d", m.CommitIdx, commitBefore)
			}
		}
		if m.Seq.ClientCalls == 0 {
			t.Fatalf("replica%d saw no client calls after failover", m.Replica)
		}
	}
	if primaries != 1 {
		t.Fatalf("%d primaries after view change", primaries)
	}
}

// TestMetricsScrapeEndpoints drives a live crane cluster and scrapes each
// replica's HTTP endpoint: /metrics must expose proxy, paxos, wal, seq, and
// dmt instruments in Prometheus text form, /healthz must report role and
// commit progress, and /trace must stream lifecycle span events.
func TestMetricsScrapeEndpoints(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.TraceCapacity = 4096
	cfg.WALDir = t.TempDir()
	c, err := StartCluster(cfg, newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	kvRequest(t, c, "scrape:1", "SET a 1")
	kvRequest(t, c, "scrape:2", "GET a")

	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	get := func(addr, path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s%s: status %d", addr, path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	// The primary's scrape must cover every instrumented layer.
	deadline := time.Now().Add(5 * time.Second)
	var metrics string
	for {
		metrics = get(p.ObsAddr(), "/metrics")
		if strings.Contains(metrics, "seq_queue_wait_seconds_count") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"proxy_admitted_total",
		"proxy_burst_entries_count",
		"proxy_admit_to_exec_seconds_count",
		"paxos_commits_total",
		"paxos_commit_seconds_count",
		"paxos_view",
		"wal_appends_total",
		"seq_queue_wait_seconds_count",
		"seq_bubble_clocks_total",
		"gate_bubbles_bulk_drained_total",
		"gate_bubble_clocks_bulk_total",
		"gate_wtimeout_lateness_seconds_count",
		"gate_bubble_requests_total",
		"proxy_tail_bubbles_total",
		"dmt_clock",
		"dmt_turn_wait_seconds",
		"transport_msgs_sent_total",
		"crane_open_conns",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	health := get(p.ObsAddr(), "/healthz")
	for _, want := range []string{`"primary":true`, `"mode":"crane"`, `"commit_index":`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz = %q missing %q", health, want)
		}
	}

	trace := get(p.ObsAddr(), "/trace")
	for _, stage := range []string{`"stage":"admit"`, `"stage":"proposed"`, `"stage":"committed"`, `"stage":"consumed"`} {
		if !strings.Contains(trace, stage) {
			t.Errorf("/trace missing %s", stage)
		}
	}

	// Backups serve their own endpoints and record commits (no admits).
	for i := 0; i < c.Replicas(); i++ {
		r := c.Replica(i)
		if r == p {
			continue
		}
		bm := get(r.ObsAddr(), "/metrics")
		if !strings.Contains(bm, "paxos_commits_total") {
			t.Errorf("backup %d /metrics missing paxos_commits_total", i)
		}
		bh := get(r.ObsAddr(), "/healthz")
		if !strings.Contains(bh, `"primary":false`) {
			t.Errorf("backup %d /healthz = %q", i, bh)
		}
	}

	// The per-stage breakdown must cover the admit -> consumed pipeline.
	rows := p.Tracer().Breakdown()
	found := false
	for _, row := range rows {
		if row.From == "admit" && row.To == "consumed" && row.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no admit->consumed breakdown rows: %+v", rows)
	}
}

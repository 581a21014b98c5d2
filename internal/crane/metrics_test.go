package crane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"crane/internal/obs"
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

// TestMetricsScrapeEndpoints drives a live crane cluster, at one Paxos group
// and at two, and scrapes each replica's HTTP endpoint: /metrics must expose
// proxy, paxos, wal, seq, and dmt instruments in Prometheus text form (the
// paxos and wal ones under their plain names at one group, renamed per group
// at two), /healthz must report role and commit progress with one row per
// group, and /trace must stream lifecycle span events.
func TestMetricsScrapeEndpoints(t *testing.T) {
	for _, groups := range []int{1, 2} {
		groups := groups
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) { scrapeEndpoints(t, groups) })
	}
}

func scrapeEndpoints(t *testing.T, groups int) {
	cfg := testConfig(ModeCrane)
	cfg.Groups = groups
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
	wants := []string{
		"proxy_admitted_total",
		"proxy_burst_entries_count",
		"proxy_admit_to_exec_seconds_count",
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
	}
	for _, perGroup := range []string{"paxos_commits_total", "paxos_commit_seconds_count", "paxos_view", "wal_appends_total"} {
		if groups == 1 {
			wants = append(wants, perGroup)
			continue
		}
		for g := 0; g < groups; g++ {
			wants = append(wants, obs.GroupInstrumentName(perGroup, g))
		}
	}
	for _, want := range wants {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every group commits (the quiet one on bubbles alone) and persists.
	healthOf := func(r *Replica) obs.Health {
		t.Helper()
		body := get(r.ObsAddr(), "/healthz")
		var h obs.Health
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("/healthz = %q: %v", body, err)
		}
		return h
	}
	var health obs.Health
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		health = healthOf(p)
		settled := len(health.Groups) == groups
		for _, g := range health.Groups {
			settled = settled && g.CommitIndex > 0 && g.WALTail > 0
		}
		if settled || time.Now().After(deadline) {
			break
		}
	}
	if !health.Primary || health.Mode != "crane" || health.CommitIndex == 0 || len(health.Groups) != groups {
		t.Errorf("/healthz = %+v: want the primary of all %d groups in mode crane, committing", health, groups)
	}
	for g, row := range health.Groups {
		if !row.Primary || row.CommitIndex == 0 || row.WALTail == 0 || row.WALLag > health.WALLag {
			t.Errorf("/healthz group %d = %+v (summary wal_lag %d)", g, row, health.WALLag)
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
		if !strings.Contains(bm, "commits_total") {
			t.Errorf("backup %d /metrics missing paxos commits", i)
		}
		if bh := healthOf(r); bh.Primary || len(bh.Groups) != groups {
			t.Errorf("backup %d /healthz = %+v", i, bh)
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

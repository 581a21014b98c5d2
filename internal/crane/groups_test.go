package crane

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"

	"crane/internal/papi"
	"crane/internal/trace"
)

// groupsConfig is testConfig with the socket-call log sharded across n
// Paxos groups.
func groupsConfig(n int) Config {
	cfg := testConfig(ModeCrane)
	cfg.Groups = n
	return cfg
}

// assertReplicaFingerprints checks every pair of live replicas for
// byte-identical output logs AND equal output fingerprints — the
// cross-replica identity every multi-group test must assert (the merge is
// only correct if sharding is invisible to the committed execution).
func assertReplicaFingerprints(t *testing.T, c *Cluster) {
	t.Helper()
	if divs := trace.DiffAll(c.OutputLogs()); len(divs) != 0 {
		t.Fatalf("output divergence across replicas: %v", divs)
	}
	var fp uint64
	first := true
	for i := 0; i < c.Replicas(); i++ {
		r := c.Replica(i)
		if r.killed() {
			continue
		}
		got := r.Outputs().Fingerprint()
		if first {
			fp, first = got, false
		} else if got != fp {
			t.Fatalf("replica %d output fingerprint %#x != %#x", i, got, fp)
		}
	}
}

// TestMultiGroupDeterminism runs the KV workload over one and over two
// Paxos groups: connections alternate across the groups, commit in
// independent Paxos logs, and must still execute in one replica-identical
// order. One group is the same pipeline (stamps, merge, mux) with nothing to
// wait for.
func TestMultiGroupDeterminism(t *testing.T) {
	for _, groups := range []int{1, 2} {
		groups := groups
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			c, err := StartCluster(groupsConfig(groups), newTestKV(8))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			for i := 0; i < 12; i++ {
				if got := kvRequest(t, c, fmt.Sprintf("mg:%d", i), fmt.Sprintf("SET k%d v%d", i, i)); got != "OK" {
					t.Fatalf("SET %d = %q", i, got)
				}
			}
			for i := 0; i < 12; i++ {
				if got := kvRequest(t, c, fmt.Sprintf("mg:g%d", i), fmt.Sprintf("GET k%d", i)); got != fmt.Sprintf("VALUE v%d", i) {
					t.Fatalf("GET %d = %q", i, got)
				}
			}
			if err := c.WaitQuiescent(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			assertReplicaFingerprints(t, c)
			assertNoDivergenceAlarms(t, c)

			p, err := c.Primary()
			if err != nil {
				t.Fatal(err)
			}
			// Every group must actually have carried traffic (the proxy's
			// consecutive connection ids alternate across the groups) and the
			// merge must have emitted every CLIENT entry delivered — with
			// more than one group the newest bubble round's tail stays parked
			// behind the other group, so total Delivered runs ahead of
			// Emitted by that bubble padding; with one group nothing parks.
			gs := p.GroupStats()
			if gs.Groups != groups || gs.Emitted == 0 || gs.PendingClient != 0 {
				t.Fatalf("merge stats %+v: want %d groups, all delivered client entries emitted", gs, groups)
			}
			if gs.Delivered != gs.Emitted+uint64(gs.Pending) {
				t.Fatalf("merge stats %+v: delivered != emitted+pending", gs)
			}
			if groups == 1 && (gs.Pending != 0 || gs.Stalls != 0) {
				t.Fatalf("merge stats %+v: one group parked or stalled", gs)
			}
			// Per-group observability: plain instrument names at one group,
			// per-group renamings beyond (wal_* is exercised in the restart
			// test — no WAL here).
			var sb strings.Builder
			if err := p.Obs().WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for g := 0; g < groups; g++ {
				if idx := p.GroupNode(g).CommitIndex(); idx == 0 {
					t.Fatalf("group %d never committed", g)
				}
				want := "paxos_commits_total"
				if groups > 1 {
					want = fmt.Sprintf("paxos_group%d_commits_total", g)
				}
				if !strings.Contains(sb.String(), want) {
					t.Fatalf("scrape output missing %s", want)
				}
			}
		})
	}
}

// TestConnClassAlignsLaneAndGroup: with as many lanes as groups, the group
// that orders a connection is the lane that runs it — both are the program's
// one ConnClass.
func TestConnClassAlignsLaneAndGroup(t *testing.T) {
	cfg := groupsConfig(2)
	cfg.Lanes = 2
	cfg.setDefaults()
	prog := newTestKV(2)
	prog.Conflict = &papi.ConflictMap{}
	r := newReplica(0, &cfg, prog, nil)
	if r.lanes != 2 || r.groups != 2 {
		t.Fatalf("lanes=%d groups=%d, want 2 and 2", r.lanes, r.groups)
	}
	for replica := uint64(1); replica <= 3; replica++ {
		for k := uint64(1); k <= 32; k++ {
			conn := replica<<48 | k
			if l, g := r.laneForConn(conn), r.groupForConn(conn); l != g {
				t.Fatalf("conn %#x: lane %d, group %d", conn, l, g)
			}
		}
	}
}

// TestEmptyGroupBubbleLiveness sends all of its traffic down one connection,
// so one of the two groups orders every client call and the other sees no
// client traffic at all. The cross-group merge cannot emit past an idle group
// until a bubble advances its watermark, so the workload only completes if
// bubbles keep flowing into BOTH groups — the liveness property the per-group
// bubble rounds exist for.
func TestEmptyGroupBubbleLiveness(t *testing.T) {
	c, err := StartCluster(groupsConfig(2), newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	conn, err := c.Dial("eg:only", 7000)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	rd := bufio.NewReader(conn)
	ask := func(line string) string {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		resp, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}
	for i := 0; i < 8; i++ {
		if got := ask(fmt.Sprintf("SET e%d w%d", i, i)); got != "OK" {
			t.Fatalf("SET %d = %q", i, got)
		}
	}
	if got := ask("GET e3"); got != "VALUE w3" {
		t.Fatalf("GET = %q", got)
	}
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	// The one open connection names the busy group; the other is stranded.
	p.px.mu.Lock()
	stranded := -1
	for id := range p.px.conns {
		stranded = 1 - p.groupForConn(id)
	}
	open := len(p.px.conns)
	p.px.mu.Unlock()
	if open != 1 {
		t.Fatalf("%d connections open at the proxy, want the test's one", open)
	}
	conn.Close()
	if err := c.WaitQuiescent(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	assertReplicaFingerprints(t, c)
	assertNoDivergenceAlarms(t, c)

	// The stranded group's log must be advancing on bubbles alone, and the
	// merge must have applied their watermark vectors (vecBumps is how an
	// idle group's watermark moves).
	if idx := p.GroupNode(stranded).CommitIndex(); idx == 0 {
		t.Fatalf("stranded group %d committed nothing: bubbles are not reaching it", stranded)
	}
	if gs := p.GroupStats(); gs.VecBumps == 0 {
		t.Fatalf("merge stats %+v: no bubble-vector watermark bumps on an empty group", gs)
	}
}

// TestFourGroupFiveReplicaFailover is the stress corner of the sharding
// matrix: four independent Paxos groups over five replicas, a primary kill
// mid-workload, and a cross-replica fingerprint assertion at the end. After
// the failover every group must re-elect (the killed replica led all of
// them), new stamps may regress below committed ones, and the merge's
// effective-stamp bump must keep all surviving replicas in one order.
func TestFourGroupFiveReplicaFailover(t *testing.T) {
	cfg := groupsConfig(4)
	cfg.Replicas = 5
	c, err := StartCluster(cfg, newTestKV(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 10; i++ {
		if got := kvRequest(t, c, fmt.Sprintf("fo:%d", i), fmt.Sprintf("SET f%d a%d", i, i)); got != "OK" {
			t.Fatalf("pre-failover SET %d = %q", i, got)
		}
	}
	if err := c.WaitQuiescent(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	killed, err := c.FailPrimary()
	if err != nil {
		t.Fatal(err)
	}
	// Wait out the elections — all four of them. The proxy starts
	// accepting as soon as group 0 re-elects, but a write lands on
	// whichever group its fresh connection id hashes to, and a group still
	// mid-election refuses the proposal (the client sees a dropped
	// connection). Resume load only once one replica leads every group.
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, err := c.Primary()
		if err == nil && p.LeadsAllGroups() {
			break
		}
		if time.Now().After(deadline) {
			detail := ""
			for i := 0; i < c.Replicas(); i++ {
				r := c.Replica(i)
				if r.killed() {
					continue
				}
				for g := 0; g < 4; g++ {
					v, prim := r.GroupNode(g).View()
					detail += fmt.Sprintf(" r%dg%d{view=%d prim=%d}", i, g, v, prim)
				}
			}
			t.Fatalf("no replica re-elected across all 4 groups:%s", detail)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 10; i < 18; i++ {
		if got := kvRequest(t, c, fmt.Sprintf("fo:%d", i), fmt.Sprintf("SET f%d a%d", i, i)); got != "OK" {
			t.Fatalf("post-failover SET %d = %q", i, got)
		}
	}
	if got := kvRequest(t, c, "fo:check", "GET f2"); got != "VALUE a2" {
		t.Fatalf("pre-failover key lost across leader kill: %q", got)
	}
	if got := kvRequest(t, c, "fo:check2", "GET f15"); got != "VALUE a15" {
		t.Fatalf("post-failover key missing: %q", got)
	}
	if err := c.WaitQuiescent(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	assertReplicaFingerprints(t, c)
	assertNoDivergenceAlarms(t, c)
	// The new primary must lead every group (bubble rounds and admissions
	// both need it in steady state), having re-elected after the kill.
	p, err := c.Primary()
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() == killed {
		t.Fatalf("killed replica %d still primary", killed)
	}
	for g := 0; g < 4; g++ {
		if idx := p.GroupNode(g).CommitIndex(); idx == 0 {
			t.Fatalf("group %d never committed", g)
		}
	}
}

// TestMultiGroupRestart recovers a failed replica from its per-group WALs
// alone, at one group (WALDir/host) and at two (WALDir/host/gN): every
// group's log replays from slot 1 through the cross-group merge, which must
// reconstruct the identical global order the live replicas executed (the
// merge is a pure function of the per-group committed streams — replay
// included).
func TestMultiGroupRestart(t *testing.T) {
	for _, groups := range []int{1, 2} {
		groups := groups
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			cfg := groupsConfig(groups)
			cfg.WALDir = t.TempDir()
			c, err := StartCluster(cfg, newTestKV(8))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			for i := 0; i < 6; i++ {
				if got := kvRequest(t, c, fmt.Sprintf("rs:%d", i), fmt.Sprintf("SET r%d x%d", i, i)); got != "OK" {
					t.Fatalf("SET %d = %q", i, got)
				}
			}
			if err := c.WaitQuiescent(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			p, err := c.Primary()
			if err != nil {
				t.Fatal(err)
			}
			victim := -1
			for i := 0; i < c.Replicas(); i++ {
				if c.Replica(i) != p {
					victim = i
					break
				}
			}
			c.FailReplica(victim)
			for i := 6; i < 10; i++ {
				if got := kvRequest(t, c, fmt.Sprintf("rs:%d", i), fmt.Sprintf("SET r%d x%d", i, i)); got != "OK" {
					t.Fatalf("SET %d (victim down) = %q", i, got)
				}
			}
			if err := c.RestartReplica(victim); err != nil {
				t.Fatal(err)
			}
			// The rebuilt replica replays every group's WAL and catches up on
			// the entries committed while it was down.
			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) {
				if c.Replica(victim).Outputs().Len() >= c.Replica(p.ID()).Outputs().Len() {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := c.WaitQuiescent(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			assertReplicaFingerprints(t, c)
		})
	}
}

// TestConfigRejectsPairs: the option pairs that cannot work together are
// refused by StartCluster with an error naming both options — neither
// silently dropped nor started into a wedge — and every combination the four
// benchmark workloads and their controls deploy is accepted.
func TestConfigRejectsPairs(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		reject []string // substrings of the error; nil: accepted
	}{
		{"speculation+groups", Config{Mode: ModeCrane, Groups: 2, Speculation: true}, []string{"Speculation", "Groups=2"}},
		{"paxos-only+groups", Config{Mode: ModePaxosOnly, Groups: 2}, []string{"paxos-only", "Groups=2"}},
		{"nobubble+groups", Config{Mode: ModeCraneNoBubble, Groups: 4}, []string{"crane-nobubble", "Groups=4"}},

		{"mysql_oltp", Config{Mode: ModeCrane, Lanes: 1, Groups: 1}, nil},
		{"apache_php", Config{Mode: ModeCrane, Lanes: 2, Groups: 1}, nil},
		{"mongoose_put_wal", Config{Mode: ModeCrane, Groups: 1, Speculation: true, WALDir: "wal"}, nil},
		{"mysql_failover", Config{Mode: ModeCrane, Groups: 2, WALDir: "wal"}, nil},
		{"control paxos-only", Config{Mode: ModePaxosOnly, Groups: 1}, nil},
		{"control nobubble", Config{Mode: ModeCraneNoBubble}, nil},
		// Un-replicated modes have no groups: the field is ignored there.
		{"control parrot-only", Config{Mode: ModeParrotOnly, Groups: 2}, nil},
		{"control nondet", Config{Mode: ModeNondet, Groups: 2, Speculation: true}, nil},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.setDefaults()
		err := cfg.validate()
		if tc.reject == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.reject {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
		// The error is StartCluster's, before anything is started.
		if c, serr := StartCluster(tc.cfg, newTestKV(2)); serr == nil {
			c.Stop()
			t.Errorf("%s: StartCluster started the cluster", tc.name)
		} else if serr.Error() != err.Error() {
			t.Errorf("%s: StartCluster error %q, want %q", tc.name, serr, err)
		}
	}
}

package paxos

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// testCluster bundles n nodes on a ChanHub with per-node delivery logs.
type testCluster struct {
	t     *testing.T
	hub   *ChanHub
	nodes []*Node
	mu    sync.Mutex
	logs  [][]LogEntry
}

func newTestCluster(t *testing.T, n int, hub *ChanHub, withStore bool) *testCluster {
	t.Helper()
	if hub == nil {
		hub = NewChanHub(0, 0, 0, 1)
	}
	tc := &testCluster{t: t, hub: hub, logs: make([][]LogEntry, n)}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	for i := 0; i < n; i++ {
		i := i
		cfg := Config{
			ID: i, Peers: peers,
			Transport:         hub.Endpoint(i),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   25 * time.Millisecond,
			OnDeliver: func(e LogEntry) {
				tc.mu.Lock()
				tc.logs[i] = append(tc.logs[i], e)
				tc.mu.Unlock()
			},
		}
		if withStore {
			var err error
			cfg.Store, err = openStore(t, i)
			if err != nil {
				t.Fatal(err)
			}
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)
	}
	for _, nd := range tc.nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			nd.Stop()
		}
	})
	return tc
}

var storeDirs sync.Map

func openStore(t *testing.T, id int) (*walLog, error) {
	dir := t.TempDir()
	storeDirs.Store(fmt.Sprintf("%s-%d", t.Name(), id), dir)
	return openWal(dir)
}

func (tc *testCluster) deliveries(i int) []LogEntry {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]LogEntry, len(tc.logs[i]))
	copy(out, tc.logs[i])
	return out
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func (tc *testCluster) primary(t *testing.T) *Node {
	t.Helper()
	var p *Node
	waitFor(t, "a primary", func() bool {
		for _, nd := range tc.nodes {
			if nd.IsPrimary() {
				p = nd
				return true
			}
		}
		return false
	})
	return p
}

func TestBasicConsensus(t *testing.T) {
	tc := newTestCluster(t, 3, nil, false)
	p := tc.primary(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := p.Propose([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Propose(%d): %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, fmt.Sprintf("node %d delivery", i), func() bool {
			return len(tc.deliveries(i)) == n
		})
	}
	// All nodes delivered the identical ordered sequence.
	ref := tc.deliveries(0)
	for i := 1; i < 3; i++ {
		got := tc.deliveries(i)
		for j := range ref {
			if got[j].Index != ref[j].Index || !bytes.Equal(got[j].Payload, ref[j].Payload) {
				t.Fatalf("node %d entry %d = %+v, want %+v", i, j, got[j], ref[j])
			}
		}
	}
	// Indices are gapless and increasing from 1.
	for j, e := range ref {
		if e.Index != uint64(j+1) {
			t.Fatalf("entry %d has index %d", j, e.Index)
		}
	}
}

func TestProposeOnBackupRejected(t *testing.T) {
	tc := newTestCluster(t, 3, nil, false)
	p := tc.primary(t)
	for _, nd := range tc.nodes {
		if nd != p {
			if err := nd.Propose([]byte("x")); err != ErrNotPrimary {
				t.Fatalf("backup Propose err = %v, want ErrNotPrimary", err)
			}
		}
	}
}

func TestFailoverElectsNewPrimary(t *testing.T) {
	tc := newTestCluster(t, 3, nil, false)
	p := tc.primary(t)
	for i := 0; i < 10; i++ {
		if err := p.Propose([]byte(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "pre-failure commit", func() bool {
		return len(tc.deliveries(1)) == 10 && len(tc.deliveries(2)) == 10
	})
	// Kill the primary.
	tc.hub.Disconnect(p.c.cfg.ID)
	var newP *Node
	waitFor(t, "new primary", func() bool {
		for _, nd := range tc.nodes {
			if nd != p && nd.IsPrimary() {
				newP = nd
				return true
			}
		}
		return false
	})
	if ms := newP.LastElectionMillis(); ms <= 0 {
		t.Errorf("LastElectionMillis = %v, want > 0", ms)
	}
	// The new primary accepts and commits proposals with the survivor.
	for i := 0; i < 10; i++ {
		waitFor(t, "propose accepted", func() bool {
			return newP.Propose([]byte(fmt.Sprintf("post%d", i))) == nil
		})
	}
	for _, nd := range tc.nodes {
		if nd == p {
			continue
		}
		id := nd.c.cfg.ID
		waitFor(t, fmt.Sprintf("node %d post-failover deliveries", id), func() bool {
			return len(tc.deliveries(id)) == 20
		})
	}
	// Survivors agree.
	var survivors []int
	for _, nd := range tc.nodes {
		if nd != p {
			survivors = append(survivors, nd.c.cfg.ID)
		}
	}
	a, b := tc.deliveries(survivors[0]), tc.deliveries(survivors[1])
	for j := range a {
		if !bytes.Equal(a[j].Payload, b[j].Payload) {
			t.Fatalf("survivors disagree at %d: %q vs %q", j, a[j].Payload, b[j].Payload)
		}
	}
}

func TestOldPrimaryDowngradesOnReconnect(t *testing.T) {
	tc := newTestCluster(t, 3, nil, false)
	p := tc.primary(t)
	if err := p.Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	tc.hub.Disconnect(p.c.cfg.ID)
	var newP *Node
	waitFor(t, "new primary", func() bool {
		for _, nd := range tc.nodes {
			if nd != p && nd.IsPrimary() {
				newP = nd
				return true
			}
		}
		return false
	})
	waitFor(t, "new primary propose", func() bool {
		return newP.Propose([]byte("b")) == nil
	})
	tc.hub.Reconnect(p.c.cfg.ID)
	// The restarted old primary must self-downgrade (§7.6).
	waitFor(t, "old primary downgrade", func() bool {
		return !p.IsPrimary()
	})
	waitFor(t, "old primary catches up", func() bool {
		d := tc.deliveries(p.c.cfg.ID)
		return len(d) >= 2
	})
	// And the cluster still has exactly one primary.
	nPrim := 0
	for _, nd := range tc.nodes {
		if nd.IsPrimary() {
			nPrim++
		}
	}
	if nPrim != 1 {
		t.Fatalf("cluster has %d primaries", nPrim)
	}
}

func TestLaggingReplicaCatchesUp(t *testing.T) {
	tc := newTestCluster(t, 3, nil, false)
	p := tc.primary(t)
	// Pick a backup and isolate it.
	var backup *Node
	for _, nd := range tc.nodes {
		if nd != p {
			backup = nd
			break
		}
	}
	tc.hub.Disconnect(backup.c.cfg.ID)
	for i := 0; i < 25; i++ {
		if err := p.Propose([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The remaining majority commits without the isolated backup.
	waitFor(t, "majority commit", func() bool {
		return p.CommitIndex() >= 25
	})
	if len(tc.deliveries(backup.c.cfg.ID)) != 0 {
		t.Fatal("isolated backup delivered entries")
	}
	tc.hub.Reconnect(backup.c.cfg.ID)
	waitFor(t, "backup catch-up", func() bool {
		return len(tc.deliveries(backup.c.cfg.ID)) == 25
	})
	got := tc.deliveries(backup.c.cfg.ID)
	for i, e := range got {
		if string(e.Payload) != fmt.Sprintf("v%d", i) {
			t.Fatalf("catch-up entry %d = %q", i, e.Payload)
		}
	}
}

func TestFiveNodeClusterSurvivesTwoFailures(t *testing.T) {
	tc := newTestCluster(t, 5, nil, false)
	p := tc.primary(t)
	killed := 0
	for _, nd := range tc.nodes {
		if nd != p && killed < 2 {
			tc.hub.Disconnect(nd.c.cfg.ID)
			killed++
		}
	}
	for i := 0; i < 10; i++ {
		if err := p.Propose([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "commit with 3/5", func() bool { return p.CommitIndex() >= 10 })
}

func TestLossyNetworkStillCommits(t *testing.T) {
	hub := NewChanHub(100*time.Microsecond, 200*time.Microsecond, 0.05, 7)
	tc := newTestCluster(t, 3, hub, false)
	p := tc.primary(t)
	const n = 30
	for i := 0; i < n; i++ {
		waitFor(t, "propose", func() bool {
			// The primary may transiently lose leadership under loss.
			for _, nd := range tc.nodes {
				if nd.IsPrimary() {
					p = nd
					return p.Propose([]byte(fmt.Sprintf("v%d", i))) == nil
				}
			}
			return false
		})
	}
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, fmt.Sprintf("node %d full delivery", i), func() bool {
			return len(tc.deliveries(i)) >= n
		})
	}
	// Prefixes agree across all nodes.
	ref := tc.deliveries(0)
	for i := 1; i < 3; i++ {
		got := tc.deliveries(i)
		m := len(ref)
		if len(got) < m {
			m = len(got)
		}
		for j := 0; j < m; j++ {
			if !bytes.Equal(got[j].Payload, ref[j].Payload) {
				t.Fatalf("divergence at %d", j)
			}
		}
	}
}

func TestDeliverFromSuppressesReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := openWal(dir)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewChanHub(0, 0, 0, 1)
	var delivered []uint64
	var mu sync.Mutex
	cfg := Config{
		ID: 0, Peers: []int{0},
		Transport:         hub.Endpoint(0),
		Store:             l,
		HeartbeatInterval: time.Millisecond,
		OnDeliver: func(e LogEntry) {
			mu.Lock()
			delivered = append(delivered, e.Index)
			mu.Unlock()
		},
	}
	n1, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1.Start()
	for i := 0; i < 10; i++ {
		if err := n1.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "single-node commit", func() bool { return n1.CommitIndex() == 10 })
	n1.Stop()

	// Restart with DeliverFrom=6: only 7..10 are re-delivered.
	mu.Lock()
	delivered = nil
	mu.Unlock()
	l2, err := openWal(dir)
	if err != nil {
		t.Fatal(err)
	}
	hub2 := NewChanHub(0, 0, 0, 1)
	cfg.Store = l2
	cfg.Transport = hub2.Endpoint(0)
	cfg.DeliverFrom = 6
	n2, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2.Start()
	defer n2.Stop()
	waitFor(t, "replay", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == 4
	})
	mu.Lock()
	defer mu.Unlock()
	for i, idx := range delivered {
		if idx != uint64(7+i) {
			t.Fatalf("replayed index %d, want %d", idx, 7+i)
		}
	}
	if n2.CommitIndex() != 10 {
		t.Fatalf("recovered CommitIndex = %d", n2.CommitIndex())
	}
}

// TestRejoiningNodeIsNotPrimaryBeforeStart: a node built to rejoin a
// running cluster (InitialPrimary -1) must not report itself primary before
// its loop runs — for node 0 the zero-valued published view would say it is,
// and a client routed there would be admitted by a replica that leads
// nothing.
func TestRejoiningNodeIsNotPrimaryBeforeStart(t *testing.T) {
	hub := NewChanHub(0, 0, 0, 1)
	defer hub.Close()
	n, err := NewNode(Config{
		ID: 0, Peers: []int{0, 1, 2}, Transport: hub.Endpoint(0),
		InitialPrimary: -1, HeartbeatInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, p := n.View(); n.IsPrimary() || p != -1 {
		t.Fatalf("unstarted rejoining node: IsPrimary=%v primary=%d, want false and -1", n.IsPrimary(), p)
	}
}

func TestElectionLatencySubSecond(t *testing.T) {
	// §7.6: leader election took 1.97 ms on the paper's testbed. With
	// millisecond-scale heartbeats the 3-step election itself (once
	// triggered) must complete well under a second.
	tc := newTestCluster(t, 3, nil, false)
	p := tc.primary(t)
	tc.hub.Disconnect(p.c.cfg.ID)
	start := time.Now()
	var newP *Node
	waitFor(t, "new primary", func() bool {
		for _, nd := range tc.nodes {
			if nd != p && nd.IsPrimary() {
				newP = nd
				return true
			}
		}
		return false
	})
	total := time.Since(start)
	if total > 2*time.Second {
		t.Fatalf("failover took %v", total)
	}
	if ms := newP.LastElectionMillis(); ms > 1000 {
		t.Fatalf("election phase took %vms", ms)
	}
}

func TestConcurrentBatchedProposeOrderUnderJitterLoss(t *testing.T) {
	// Concurrent Propose and ProposeBatch callers race into the batcher
	// while the hub injects latency, jitter, and loss. Every replica must
	// deliver the identical gapless sequence — batching changes how rounds
	// are packaged, never the decided order.
	hub := NewChanHub(50*time.Microsecond, 150*time.Microsecond, 0.02, 11)
	tc := newTestCluster(t, 3, hub, false)
	tc.primary(t)
	const workers = 6
	const perWorker = 40 // half propose singly, half in bursts of 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; {
				var p *Node
				for _, nd := range tc.nodes {
					if nd.IsPrimary() {
						p = nd
						break
					}
				}
				if p == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				var err error
				var k int
				if w%2 == 0 {
					k = 1
					err = p.Propose([]byte(fmt.Sprintf("w%d-%d", w, i)))
				} else {
					k = 4
					if rem := perWorker - i; k > rem {
						k = rem
					}
					batch := make([][]byte, k)
					for j := range batch {
						batch[j] = []byte(fmt.Sprintf("w%d-%d", w, i+j))
					}
					err = p.ProposeBatch(batch)
				}
				if err != nil {
					time.Sleep(time.Millisecond)
					continue // primary moved; retry
				}
				mu.Lock()
				accepted += k
				mu.Unlock()
				i += k
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	want := accepted
	mu.Unlock()
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, fmt.Sprintf("node %d full delivery", i), func() bool {
			return len(tc.deliveries(i)) >= want
		})
	}
	// Identical order everywhere, gapless indices. (A view change during
	// the run may re-commit: compare the common prefix entry by entry.)
	ref := tc.deliveries(0)
	for j, e := range ref {
		if e.Index != uint64(j+1) {
			t.Fatalf("node 0 entry %d has index %d", j, e.Index)
		}
	}
	for i := 1; i < 3; i++ {
		got := tc.deliveries(i)
		m := len(ref)
		if len(got) < m {
			m = len(got)
		}
		for j := 0; j < m; j++ {
			if got[j].Index != ref[j].Index || !bytes.Equal(got[j].Payload, ref[j].Payload) {
				t.Fatalf("node %d diverges at %d: %d/%q vs %d/%q", i, j,
					got[j].Index, got[j].Payload, ref[j].Index, ref[j].Payload)
			}
		}
	}
	// The batch path must also have produced some multi-entry rounds; a
	// regression to one-round-per-entry would still pass the order checks,
	// so sanity-check the proposals all landed exactly once per worker.
	seen := make(map[string]int)
	for _, e := range ref[:want] {
		seen[string(e.Payload)]++
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			key := fmt.Sprintf("w%d-%d", w, i)
			if seen[key] == 0 {
				t.Fatalf("proposal %s never delivered", key)
			}
		}
	}
}

func TestChanTransportStatsCountsDrops(t *testing.T) {
	// Loss drops are counted at the sender, overflow drops at the receiver.
	hub := NewChanHub(0, 0, 1.0, 3) // 100% loss
	src, dst := hub.Endpoint(0), hub.Endpoint(1)
	defer src.Close()
	defer dst.Close()
	dst.SetHandler(func(Message) {})
	for i := 0; i < 10; i++ {
		if err := src.Send(1, Message{Type: MsgHeartbeat}); err != nil {
			t.Fatal(err)
		}
	}
	st := src.Stats()
	if st.Sent != 10 || st.LossDropped != 10 {
		t.Fatalf("Stats after loss = %+v, want Sent=10 LossDropped=10", st)
	}

	// Overflow: with an hour of latency nothing is delivered during the
	// test, so the delivery queue holds every send and the three beyond its
	// bound are dropped.
	hub2 := NewChanHub(time.Hour, 0, 0, 3)
	src2, dst2 := hub2.Endpoint(0), hub2.Endpoint(1)
	defer src2.Close()
	defer dst2.Close()
	dst2.SetHandler(func(Message) { t.Error("a message an hour out was delivered") })
	const sends = inboxBound + 3
	for i := 0; i < sends; i++ {
		if err := src2.Send(1, Message{Type: MsgHeartbeat, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st2 := dst2.Stats()
	if st2.InboxDropped != 3 {
		t.Fatalf("InboxDropped = %d, want 3", st2.InboxDropped)
	}
	if got := src2.Stats(); got.Sent != sends || got.LossDropped != 0 {
		t.Fatalf("sender stats = %+v, want Sent=%d LossDropped=0", got, sends)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgAccept.String() != "Accept" || MsgNewPrimary.String() != "NewPrimary" {
		t.Fatal("MsgType.String broken")
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Fatal("unknown MsgType.String broken")
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{ID: 0, Peers: []int{0}}); err == nil {
		t.Fatal("nil transport accepted")
	}
	hub := NewChanHub(0, 0, 0, 1)
	if _, err := NewNode(Config{ID: 0, Transport: hub.Endpoint(0)}); err == nil {
		t.Fatal("empty peers accepted")
	}
}

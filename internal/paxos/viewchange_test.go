package paxos

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestQuickConsensusAgreement property: for random payload batches and
// jittery delivery, all nodes deliver identical ordered prefixes.
func TestQuickConsensusAgreement(t *testing.T) {
	f := func(payloads [][]byte, seed int64) bool {
		if len(payloads) > 20 {
			payloads = payloads[:20]
		}
		if len(payloads) == 0 {
			return true
		}
		hub := NewChanHub(50*time.Microsecond, 150*time.Microsecond, 0, seed)
		tc := newTestCluster(t, 3, hub, false)
		defer func() {
			for _, nd := range tc.nodes {
				nd.Stop()
			}
		}()
		p := tc.primary(t)
		for _, pl := range payloads {
			if err := p.Propose(pl); err != nil {
				return false
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			ok := true
			for i := 0; i < 3; i++ {
				if len(tc.deliveries(i)) < len(payloads) {
					ok = false
				}
			}
			if ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		ref := tc.deliveries(0)
		if len(ref) < len(payloads) {
			return false
		}
		for i := 1; i < 3; i++ {
			d := tc.deliveries(i)
			if len(d) < len(payloads) {
				return false
			}
			for j := range payloads {
				if string(d[j].Payload) != string(ref[j].Payload) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestWalSurvivesRestartMidStream: a node stopped and restarted with its
// WAL rejoins and converges without re-delivering suppressed entries.
func TestWalSurvivesRestartMidStream(t *testing.T) {
	dir := t.TempDir()
	hub := NewChanHub(0, 0, 0, 1)
	peers := []int{0, 1, 2}
	var logMu sync.Mutex
	logs := make(map[int][]uint64)
	nLogs := func(id int) int {
		logMu.Lock()
		defer logMu.Unlock()
		return len(logs[id])
	}
	mkNode := func(id int, deliverFrom uint64) *Node {
		cfg := Config{
			ID: id, Peers: peers, Transport: hub.Endpoint(id),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   25 * time.Millisecond,
			DeliverFrom:       deliverFrom,
			OnDeliver: func(e LogEntry) {
				logMu.Lock()
				logs[id] = append(logs[id], e.Index)
				logMu.Unlock()
			},
		}
		if id == 2 { // a nil *walLog in the Store interface would not be nil
			store, err := openWal(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = store
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		return n
	}
	nodes := []*Node{mkNode(0, 0), mkNode(1, 0), mkNode(2, 0)}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var p *Node
	waitFor(t, "primary", func() bool {
		for _, n := range nodes {
			if n.IsPrimary() {
				p = n
				return true
			}
		}
		return false
	})
	for i := 0; i < 10; i++ {
		if err := p.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "node2 deliveries", func() bool { return nLogs(2) == 10 })
	// Stop node 2 (its WAL persists), continue committing, restart it.
	nodes[2].Stop()
	hub.Disconnect(2)
	time.Sleep(5 * time.Millisecond)
	for i := 10; i < 15; i++ {
		waitFor(t, "propose", func() bool {
			for _, n := range nodes[:2] {
				if n.IsPrimary() {
					return n.Propose([]byte{byte(i)}) == nil
				}
			}
			return false
		})
	}
	hub.Reconnect(2)
	// Restart from WAL, suppressing re-delivery of the first 10.
	n2 := mkNode(2, 10)
	nodes[2] = n2
	waitFor(t, "catch-up", func() bool { return nLogs(2) == 15 })
	logMu.Lock()
	defer logMu.Unlock()
	for i, idx := range logs[2][10:] {
		if idx != uint64(11+i) {
			t.Fatalf("re-delivered wrong index %d at %d", idx, i)
		}
	}
}

package paxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"crane/internal/wal"
)

// TestDoneMinGC exercises the Min/Done garbage collection protocol: once
// every node promises (SetDone) that it no longer needs the prefix, the
// primary compacts to the cluster minimum and backups follow the floor it
// announces on heartbeats. A node that never promises pins the cluster.
func TestDoneMinGC(t *testing.T) {
	tc := newGCTestCluster(t, 3)
	p := tc.primary(t)
	for i := 0; i < 50; i++ {
		if err := p.Propose([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	waitFor(t, "all nodes at index 50", func() bool {
		for _, nd := range tc.nodes {
			if nd.CommitIndex() < 50 {
				return false
			}
		}
		return true
	})

	// Partial promise: two nodes done, one silent — no GC may happen.
	tc.nodes[0].SetDone(40)
	tc.nodes[1].SetDone(40)
	for i := 0; i < 5; i++ { // traffic to carry the piggybacked watermarks
		p.Propose([]byte("tick"))
		time.Sleep(2 * time.Millisecond)
	}
	for i, nd := range tc.nodes {
		if f := nd.GCFloor(); f != 0 {
			t.Fatalf("node %d compacted to %d with a peer still at done=0", i, f)
		}
	}

	// Full promise: the floor must reach min(40, 45, 40) = 40 everywhere.
	tc.nodes[2].SetDone(45)
	waitFor(t, "GC floor 40 on every node", func() bool {
		p.Propose([]byte("tick"))
		for _, nd := range tc.nodes {
			if nd.GCFloor() != 40 {
				return false
			}
		}
		return true
	})
	// CompactBefore is segment-granular: whole segments strictly below the
	// floor are removed, a partial one is kept. With tiny segments the WAL
	// head must have moved well past index 1 but never past the floor.
	for i, nd := range tc.nodes {
		first, ok := nd.c.cfg.Store.First()
		if !ok || first <= 1 || first > 41 {
			t.Fatalf("node %d WAL first=%d ok=%v, want in (1, 41]", i, first, ok)
		}
	}
	// The records above the floor are still in the WAL
	// (checkpoint-anchored recovery replays them).
	var replayed int
	if err := tc.nodes[0].c.cfg.Store.Scan(41, ^uint64(0), func(wal.Record) bool { replayed++; return true }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed == 0 {
		t.Fatal("no entries replayable above the GC floor")
	}
}

// newGCTestCluster is newTestCluster with tiny WAL segments, so
// segment-granular compaction is observable with double-digit log sizes.
func newGCTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	hub := NewChanHub(0, 0, 0, 1)
	tc := &testCluster{t: t, hub: hub, logs: make([][]LogEntry, n)}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	for i := 0; i < n; i++ {
		i := i
		store, err := wal.Open(t.TempDir(), wal.Options{NoSync: true, SegmentSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			ID: i, Peers: peers,
			Transport:         hub.Endpoint(i),
			Store:             store,
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   25 * time.Millisecond,
			OnDeliver: func(e LogEntry) {
				tc.mu.Lock()
				tc.logs[i] = append(tc.logs[i], e)
				tc.mu.Unlock()
			},
		})
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

// TestGroupMuxIndependentGroups runs two consensus groups over one shared
// hub endpoint per replica and checks that commits stay group-local and
// that closing one group's nodes leaves the other's transport open
// (reference-counted inner endpoint).
func TestGroupMuxIndependentGroups(t *testing.T) {
	const groups, replicas = 2, 3
	hub := NewChanHub(0, 0, 0, 1)
	defer hub.Close()
	muxes := make([]*GroupMux, replicas)
	for i := 0; i < replicas; i++ {
		muxes[i] = NewGroupMux(hub.Endpoint(i))
	}
	peers := []int{0, 1, 2}
	var mu sync.Mutex
	logs := make(map[int][]string) // group -> payloads in delivery order (node 0's view)
	nodes := make([][]*Node, groups)
	for g := 0; g < groups; g++ {
		for i := 0; i < replicas; i++ {
			g, i := g, i
			cfg := Config{
				ID: i, Peers: peers,
				Transport:         muxes[i].Port(g),
				HeartbeatInterval: 5 * time.Millisecond,
				ElectionTimeout:   25 * time.Millisecond,
			}
			if i == 0 {
				cfg.OnDeliver = func(e LogEntry) {
					mu.Lock()
					logs[g] = append(logs[g], string(e.Payload))
					mu.Unlock()
				}
			}
			nd, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes[g] = append(nodes[g], nd)
		}
	}
	for g := range nodes {
		for _, nd := range nodes[g] {
			nd.Start()
		}
	}
	defer func() {
		for g := range nodes {
			for _, nd := range nodes[g] {
				nd.Stop()
			}
		}
	}()

	primaries := make([]*Node, groups)
	for g := 0; g < groups; g++ {
		g := g
		waitFor(t, fmt.Sprintf("group %d primary", g), func() bool {
			for _, nd := range nodes[g] {
				if nd.IsPrimary() {
					primaries[g] = nd
					return true
				}
			}
			return false
		})
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < 10; i++ {
			if err := primaries[g].Propose([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
				t.Fatalf("group %d propose: %v", g, err)
			}
		}
	}
	waitFor(t, "both groups delivered 10", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(logs[0]) >= 10 && len(logs[1]) >= 10
	})
	mu.Lock()
	for g := 0; g < groups; g++ {
		for i, pl := range logs[g][:10] {
			if want := fmt.Sprintf("g%d-%d", g, i); pl != want {
				t.Fatalf("group %d delivery %d = %q, want %q (cross-group leak?)", g, i, pl, want)
			}
		}
	}
	mu.Unlock()

	// Stop group 0's nodes: their ports close, but group 1 keeps committing
	// over the same shared endpoints.
	for _, nd := range nodes[0] {
		nd.Stop()
	}
	time.Sleep(10 * time.Millisecond)
	before := primaries[1].CommitIndex()
	if err := primaries[1].Propose([]byte("after")); err != nil {
		t.Fatalf("group 1 propose after group 0 shutdown: %v", err)
	}
	waitFor(t, "group 1 commit after group 0 shutdown", func() bool {
		return primaries[1].CommitIndex() > before
	})
}

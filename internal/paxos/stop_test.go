package paxos

import (
	"sync"
	"testing"
)

// TestStopWaitsForInFlightCommit: Stop returns only after the event loop
// has exited, so closing the WAL right after it — what crane's Replica.stop
// does — can never land under a commit still being appended. Before Stop
// waited, this panicked the process with "paxos: wal append: wal: closed".
func TestStopWaitsForInFlightCommit(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		store, err := openWal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			ID: 0, Peers: []int{0}, Store: store,
			Transport: NewChanHub(0, 0, 0, 1).Endpoint(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		// A single node is its own majority: every ProposeBatch commits, and
		// appends to the WAL, on the event loop before the call returns.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
			for n.ProposeBatch(batch) == nil {
			}
		}()
		waitFor(t, "commits under the stream", func() bool { return n.CommitIndex() >= 30 })
		n.Stop()
		if err := store.Close(); err != nil {
			t.Fatalf("iter %d: close WAL: %v", iter, err)
		}
		wg.Wait()
		n.Stop() // a repeated Stop also returns
	}
}

// TestStopBeforeStartReturns: a node that never ran has no loop to wait
// for (a replica whose start failed half-way stops such nodes).
func TestStopBeforeStartReturns(t *testing.T) {
	n, err := NewNode(Config{ID: 0, Peers: []int{0}, Transport: NewChanHub(0, 0, 0, 1).Endpoint(0)})
	if err != nil {
		t.Fatal(err)
	}
	n.Stop()
}

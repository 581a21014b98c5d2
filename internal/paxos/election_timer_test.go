package paxos

import (
	"testing"
	"time"
)

// TestPromiseRestartsElectionTimer: an acceptor that grants a promise gives
// the candidate a full timeout before standing itself. Without that, an
// acceptor whose own timer was due between its promise and the NewPrimary
// stood at view+1 and the fresh primary yielded to it (onProposeView) just
// as it started serving: the proxy refused the first writes after a
// failover even though every node agreed on the winner. The handlers are
// driven directly on an unstarted node, so no real time is involved.
func TestPromiseRestartsElectionTimer(t *testing.T) {
	n, err := NewNode(Config{
		ID: 1, Peers: []int{0, 1, 2}, InitialPrimary: 0,
		ElectionTimeout: 100 * time.Millisecond,
		Transport:       NewChanHub(0, 0, 0, 3).Endpoint(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The old primary has been silent for longer than any election delay:
	// this node's own candidacy is due on its next tick.
	n.lastHB = time.Now().Add(-time.Hour)
	n.onProposeView(Message{Type: MsgProposeView, From: 2, View: 1})
	if n.promised != 1 || n.status != StatusViewChange {
		t.Fatalf("promise not granted: promised=%d status=%v", n.promised, n.status)
	}
	n.handleTick()
	if n.electing {
		t.Fatalf("stood for view %d right after promising view 1 to node 2", n.candView)
	}
}

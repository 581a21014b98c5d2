package crane

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/paxos"
	"crane/internal/seq"
)

// TestBubbleInBatchCommitsInPosition: a ProposeBatch burst carrying a time
// bubble between socket calls must commit the bubble exactly in its decided
// position on every replica — batching changes round packaging, never the
// logical-time placement of §4.
func TestBubbleInBatchCommitsInPosition(t *testing.T) {
	hub := paxos.NewChanHub(0, 0, 0, 1)
	peers := []int{0, 1, 2}
	var mu sync.Mutex
	delivered := make([][]*seq.Entry, 3)
	var nodes []*paxos.Node
	for i := 0; i < 3; i++ {
		i := i
		n, err := paxos.NewNode(paxos.Config{
			ID: i, Peers: peers, Transport: hub.Endpoint(i),
			HeartbeatInterval: 5 * time.Millisecond,
			ElectionTimeout:   500 * time.Millisecond,
			OnDeliver: func(e paxos.LogEntry) {
				ent, err := seq.Decode(e.Payload)
				if err != nil {
					t.Errorf("node %d: decode index %d: %v", i, e.Index, err)
					return
				}
				ent.Index = e.Index
				mu.Lock()
				delivered[i] = append(delivered[i], ent)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !nodes[0].IsPrimary() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	burst := []*seq.Entry{
		{Kind: seq.KindConnect, Conn: 1, Port: 7000},
		{Kind: seq.KindSend, Conn: 1, Data: []byte("req-a")},
		{Kind: seq.KindBubble, NClock: 3},
		{Kind: seq.KindSend, Conn: 1, Data: []byte("req-b")},
		{Kind: seq.KindClose, Conn: 1},
	}
	payloads, err := seq.EncodeBatch(burst)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].ProposeBatch(payloads); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		for {
			mu.Lock()
			got := len(delivered[i])
			mu.Unlock()
			if got >= len(burst) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d delivered %d/%d entries", i, got, len(burst))
			}
			time.Sleep(time.Millisecond)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		got := delivered[i]
		for j, want := range burst {
			e := got[j]
			if e.Index != uint64(j+1) {
				t.Fatalf("node %d entry %d has index %d", i, j, e.Index)
			}
			if e.Kind != want.Kind || e.Conn != want.Conn ||
				e.NClock != want.NClock || !bytes.Equal(e.Data, want.Data) {
				t.Fatalf("node %d entry %d = %+v, want %+v", i, j, e, want)
			}
		}
		// The bubble sits in its decided slot: index 3, after req-a and
		// before req-b.
		if got[2].Kind != seq.KindBubble || got[2].Index != 3 {
			t.Fatalf("node %d bubble at %+v", i, got[2])
		}
	}
}

// TestProxyBurstsPreserveBubbleSemantics: full-stack check that the proxy's
// burst submitter plus Wtimeout-driven bubble insertion still yields a
// converging cluster serving concurrent clients (the bubble terminates any
// burst it rides in, so clocks elapse before later calls are packaged).
func TestProxyBurstsPreserveBubbleSemantics(t *testing.T) {
	cfg := testConfig(ModeCrane)
	c, err := StartCluster(cfg, newTestKV(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const writers = 4
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				key := []byte{byte('a' + w)}
				resp, err := clients.Request(c.Dial, "bc:"+string(key), 7000,
					[]byte("SET "+string(key)+" v\n"), clients.UntilLine)
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != "OK\n" {
					errs <- fmt.Errorf("SET %s = %q", key, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiescent(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// At least one bubble should have been decided under test Wtimeouts,
	// and replicas must agree on the sequence statistics.
	st := c.SeqStats()
	if st.Enqueued == 0 {
		t.Fatal("nothing enqueued")
	}
}

package paxos

import (
	"sort"
	"testing"
	"time"
)

// TestChanHubDeliversOnTime: in a quiet process a 50 µs hop arrives within a
// few hundred microseconds of being due. A per-message runtime timer would
// wait for epoll_wait's millisecond.
func TestChanHubDeliversOnTime(t *testing.T) {
	const sends, link = 200, 50 * time.Microsecond
	hub := NewChanHub(link, 0, 0, 1)
	defer hub.Close()
	src, dst := hub.Endpoint(0), hub.Endpoint(1)
	got := make(chan time.Time, 1)
	dst.SetHandler(func(Message) { got <- time.Now() })
	late := make([]time.Duration, sends)
	for i := range late {
		t0 := time.Now()
		if err := src.Send(1, Message{Type: MsgHeartbeat}); err != nil {
			t.Fatal(err)
		}
		late[i] = (<-got).Sub(t0) - link
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	p50 := late[sends/2]
	t.Logf("lateness of a %v hop, p50 of %d serial sends: %v (p90 %v)", link, sends, p50, late[sends*9/10])
	if p50 >= 300*time.Microsecond {
		t.Errorf("p50 lateness %v, want under 300µs", p50)
	}
}

// TestChanHubDueTimeOrder: messages arrive in due-time order, and messages
// due at the same time in the order they were sent.
func TestChanHubDueTimeOrder(t *testing.T) {
	var q dueQueue
	at := time.Now()
	for i, off := range []int{3, 1, 3, 0, 1, 3} {
		q.push(queued{due: at.Add(time.Duration(off)), seq: uint64(i), msg: Message{Index: uint64(i)}})
	}
	var order []uint64
	for len(q) > 0 {
		order = append(order, q.pop().Index)
	}
	want := []uint64{3, 1, 4, 0, 2, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

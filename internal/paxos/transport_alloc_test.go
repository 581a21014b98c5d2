//go:build !race

// Not under -race: the race detector's runtime allocates on the delivery path.

package paxos

import (
	"testing"
	"time"
)

// TestChanTransportSendDoesNotAllocate: a steady-state send and its delivery
// cost no allocation — no timer, closure or channel per message.
func TestChanTransportSendDoesNotAllocate(t *testing.T) {
	hub := NewChanHub(20*time.Microsecond, 0, 0, 1)
	defer hub.Close()
	src, dst := hub.Endpoint(0), hub.Endpoint(1)
	got := make(chan struct{}, 1)
	dst.SetHandler(func(Message) { got <- struct{}{} })
	msg := Message{Type: MsgHeartbeat, Index: 1}
	roundTrip := func() {
		if err := src.Send(1, msg); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 100; i++ {
		roundTrip() // warm the queue's backing array and the timer service
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("a send and its delivery allocate %v times, want 0", n)
	}
}

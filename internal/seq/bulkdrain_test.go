package seq

import (
	"fmt"
	"testing"

	"crane/internal/obs/flight"
)

// bubbleFixture builds a journaled sequence holding one n-clock bubble
// followed by a client call, so the drain has something to stop at.
func bubbleFixture(n uint64, spec bool) (*Sequence, *flight.Journal) {
	s := New()
	j := flight.New("t", 1, flight.Options{}).Lane(0)
	s.SetFlight(j, func() uint64 { return 7 })
	b := &Entry{Kind: KindBubble, NClock: n, Req: 99}
	if spec {
		s.EnqueueSpec(b)
	} else {
		s.Enqueue(b)
	}
	s.Enqueue(&Entry{Kind: KindSend, Conn: 1, Data: []byte("x")})
	return s, j
}

// TestBulkDrainEqualsTicks: draining N clocks in one act leaves every
// observable — Stats, Progress, SpecConsumed, the journal's event count and
// chain — exactly where N single TickBubble calls leave it, from any
// starting point inside the bubble.
func TestBulkDrainEqualsTicks(t *testing.T) {
	for _, tc := range []struct {
		n, pre uint64 // bubble size; clocks ticked one by one before the drain
		spec   bool
	}{
		{1, 0, false}, {2, 1, false}, {1000, 0, false}, {1000, 37, false},
		{250, 0, true}, {250, 249, true}, {0, 0, false},
	} {
		t.Run(fmt.Sprintf("n%d_pre%d_spec%v", tc.n, tc.pre, tc.spec), func(t *testing.T) {
			ticked, tj := bubbleFixture(tc.n, tc.spec)
			for i := uint64(0); i < tc.n || i == 0; i++ {
				if !ticked.TickBubble() {
					t.Fatalf("tick %d: head is not a bubble", i)
				}
			}
			drained, dj := bubbleFixture(tc.n, tc.spec)
			for i := uint64(0); i < tc.pre; i++ {
				drained.TickBubble()
			}
			if got, want := drained.DrainBubble(), tc.n-tc.pre; got != want {
				t.Fatalf("DrainBubble = %d, want %d", got, want)
			}
			if a, b := ticked.Stats(), drained.Stats(); a != b {
				t.Fatalf("Stats differ:\n ticked  %+v\n drained %+v", a, b)
			}
			if a, b := ticked.Progress(), drained.Progress(); a != b || a != tc.n {
				t.Fatalf("Progress ticked %d drained %d, want %d", a, b, tc.n)
			}
			if a, b := ticked.SpecConsumed(), drained.SpecConsumed(); a != b {
				t.Fatalf("SpecConsumed ticked %d drained %d", a, b)
			}
			if tj.Len() != 1 || dj.Len() != 1 {
				t.Fatalf("journal events ticked %d drained %d, want one EvBubble each", tj.Len(), dj.Len())
			}
			if tj.Chain() != dj.Chain() {
				t.Fatalf("journal chains differ: ticked %#x drained %#x", tj.Chain(), dj.Chain())
			}
			if te, de := tj.Entries()[0], dj.Entries()[0]; te.Kind != flight.EvBubble || te != de {
				t.Fatalf("journal entries differ:\n ticked  %+v\n drained %+v", te, de)
			}
			if h, ok := drained.Head(); !ok || h.Kind != KindSend {
				t.Fatalf("head after drain = %+v, %v; want the SEND behind the bubble", h, ok)
			}
		})
	}
}

// TestBulkDrainLeavesClientCallsAlone: a non-bubble head is not touched.
func TestBulkDrainLeavesClientCallsAlone(t *testing.T) {
	s := New()
	if n := s.DrainBubble(); n != 0 {
		t.Fatalf("DrainBubble on an empty sequence = %d", n)
	}
	s.Enqueue(&Entry{Kind: KindConnect, Conn: 4, Port: 80})
	before := s.Stats()
	if n := s.DrainBubble(); n != 0 {
		t.Fatalf("DrainBubble on a CONNECT head = %d", n)
	}
	if after := s.Stats(); after != before || s.Progress() != 0 {
		t.Fatalf("DrainBubble on a CONNECT head changed state: %+v -> %+v", before, after)
	}
}

// TestGateRearmWake: every enqueue posts the wake channel, the slot never
// blocks the producer, and a consumer that saw the sequence empty cannot
// miss an entry enqueued before it starts waiting.
func TestGateRearmWake(t *testing.T) {
	s := New()
	select {
	case <-s.Wake():
		t.Fatal("wake posted on a fresh sequence")
	default:
	}
	for i := 0; i < 3; i++ { // more enqueues than slots: must not block
		s.Enqueue(&Entry{Kind: KindBubble, NClock: 1})
	}
	select {
	case <-s.Wake():
	default:
		t.Fatal("Enqueue did not post the wake channel")
	}
	select {
	case <-s.Wake():
		t.Fatal("wake channel holds more than one token")
	default:
	}
	s.EnqueueSpec(&Entry{Kind: KindSend, Conn: 1, Data: []byte("a")})
	select {
	case <-s.Wake():
	default:
		t.Fatal("EnqueueSpec did not post the wake channel")
	}
	before := s.Stats()
	s.Nudge()
	s.Nudge() // must not block on the full slot
	select {
	case <-s.Wake():
	default:
		t.Fatal("Nudge did not post the wake channel")
	}
	if s.Stats() != before {
		t.Fatal("Nudge changed the sequence")
	}
}

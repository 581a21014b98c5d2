package seq

import (
	"testing"
)

// TestEnqueueSpecAndClear covers the speculative entry lifecycle of the
// hit path: a clone enters tagged Spec, is consumed like any committed
// entry, and ClearSpec promotes it in place when its commit confirms.
func TestEnqueueSpecAndClear(t *testing.T) {
	s := New()
	e := &Entry{Kind: KindSend, Conn: 7, Data: []byte("hello")}
	s.EnqueueSpec(e)
	if !e.Spec {
		t.Fatal("EnqueueSpec did not tag the entry")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.ClearSpec(e, 42)
	if e.Spec {
		t.Fatal("ClearSpec left the Spec flag set")
	}
	if e.Index != 42 {
		t.Fatalf("ClearSpec stamped Index %d, want 42", e.Index)
	}
	// Consumption after promotion must not count as speculative.
	buf := make([]byte, 16)
	if n, _ := s.ReadInto(7, buf); n != 5 {
		t.Fatalf("ReadInto consumed %d bytes", n)
	}
	if got := s.SpecConsumed(); got != 0 {
		t.Fatalf("SpecConsumed = %d after consuming a promoted entry", got)
	}
}

// TestSpecConsumedCountsEveryPath verifies that each consumption act
// against a speculative entry — bubble tick, full read, close-EOF, and the
// gate's filing pop of any client call — bumps the contamination counter the abort
// path keys its light-vs-rollback decision on.
func TestSpecConsumedCountsEveryPath(t *testing.T) {
	s := New()
	s.EnqueueSpec(&Entry{Kind: KindBubble, NClock: 2})
	s.TickBubble()
	if got := s.SpecConsumed(); got != 1 {
		t.Fatalf("SpecConsumed = %d after one spec bubble tick", got)
	}
	s.TickBubble() // exhausts the bubble
	s.EnqueueSpec(&Entry{Kind: KindConnect, Conn: 3, Port: 80})
	if _, ok := s.PopCall(nil); !ok {
		t.Fatal("PopCall of the CONNECT failed")
	}
	s.EnqueueSpec(&Entry{Kind: KindSend, Conn: 3, Data: []byte("ab")})
	if n, _ := s.ReadInto(3, make([]byte, 4)); n != 2 {
		t.Fatalf("ReadInto = %d", n)
	}
	s.EnqueueSpec(&Entry{Kind: KindClose, Conn: 3})
	if _, eof := s.ReadInto(3, make([]byte, 4)); !eof {
		t.Fatal("close entry did not EOF")
	}
	s.EnqueueSpec(&Entry{Kind: KindSend, Conn: 9, Data: []byte("x")})
	if _, ok := s.PopCall(nil); !ok {
		t.Fatal("PopCall of the SEND failed")
	}
	if got := s.SpecConsumed(); got != 6 {
		t.Fatalf("SpecConsumed = %d, want 6 (2 ticks + connect + send + close + filed send)", got)
	}
}

// TestSpecConsumedPartialRead pins the contamination rule for partial
// reads: bytes that reached the server count even though the entry stays
// queued.
func TestSpecConsumedPartialRead(t *testing.T) {
	s := New()
	s.EnqueueSpec(&Entry{Kind: KindSend, Conn: 1, Data: []byte("abcdef")})
	if n, _ := s.ReadInto(1, make([]byte, 2)); n != 2 {
		t.Fatalf("partial ReadInto = %d", n)
	}
	if got := s.SpecConsumed(); got != 1 {
		t.Fatalf("SpecConsumed = %d after a partial read", got)
	}
	if s.Len() != 1 {
		t.Fatal("partially read entry left the queue")
	}
}

// TestTruncateSpecRemovesOnlySpecSuffix verifies an abort's truncation:
// the speculative suffix goes, committed entries stay, and the
// enqueue-side counters roll back to the committed stream.
func TestTruncateSpecRemovesOnlySpecSuffix(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindSend, Conn: 1, Data: []byte("keep")})
	s.EnqueueSpec(&Entry{Kind: KindConnect, Conn: 2, Port: 80})
	s.EnqueueSpec(&Entry{Kind: KindSend, Conn: 2, Data: []byte("drop")})
	s.EnqueueSpec(&Entry{Kind: KindBubble, NClock: 5})
	if n := s.TruncateSpec(); n != 3 {
		t.Fatalf("TruncateSpec removed %d entries, want 3", n)
	}
	st := s.Stats()
	if st.Pending != 1 || st.Enqueued != 1 || st.ClientCalls != 1 || st.Bubbles != 0 {
		t.Fatalf("post-truncate stats = %+v", st)
	}
	if st.PayloadBytes != uint64(len("keep"))+16 {
		t.Fatalf("PayloadBytes = %d after truncate", st.PayloadBytes)
	}
	h, ok := s.Head()
	if !ok || h.Index != 1 {
		t.Fatalf("head after truncate = %+v, %v", h, ok)
	}
	// A committed entry below the suffix is a hard floor: nothing left to
	// truncate.
	if n := s.TruncateSpec(); n != 0 {
		t.Fatalf("second TruncateSpec removed %d entries", n)
	}
}

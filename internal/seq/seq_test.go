package seq

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := &Entry{Index: 7, Kind: KindSend, Conn: 3, Port: 80, Data: []byte("GET / HTTP/1.0\r\n")}
	b, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 7 || got.Kind != KindSend || got.Conn != 3 || got.Port != 80 || !bytes.Equal(got.Data, e.Data) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob")); err == nil {
		t.Fatal("Decode of garbage succeeded")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindConnect: "CONNECT", KindSend: "SEND", KindClose: "CLOSE",
		KindBubble: "BUBBLE", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestEnqueueHeadOrder(t *testing.T) {
	s := New()
	if !s.Empty() {
		t.Fatal("new sequence not empty")
	}
	s.Enqueue(&Entry{Index: 1, Kind: KindConnect, Conn: 10})
	s.Enqueue(&Entry{Index: 2, Kind: KindSend, Conn: 10, Data: []byte("x")})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	h, ok := s.Head()
	if !ok || h.Kind != KindConnect || h.Index != 1 {
		t.Fatalf("Head = %+v, %v", h, ok)
	}
}

func TestPopConnect(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindConnect, Conn: 42, Port: 8080})
	conn, port, ok := s.PopConnect()
	if !ok || conn != 42 || port != 8080 {
		t.Fatalf("PopConnect = %d, %d, %v", conn, port, ok)
	}
	if _, _, ok := s.PopConnect(); ok {
		t.Fatal("PopConnect on empty succeeded")
	}
	// PopConnect must not consume a non-connect head.
	s.Enqueue(&Entry{Index: 2, Kind: KindSend, Conn: 42})
	if _, _, ok := s.PopConnect(); ok {
		t.Fatal("PopConnect consumed a SEND")
	}
	if s.Len() != 1 {
		t.Fatal("PopConnect disturbed the queue")
	}
}

func TestReadDataPartialConsumption(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindSend, Conn: 1, Data: []byte("abcdefgh")})
	data, eof := s.ReadData(1, 3)
	if eof || string(data) != "abc" {
		t.Fatalf("ReadData = %q, eof=%v", data, eof)
	}
	// Remainder stays at the head for the next recv.
	data, eof = s.ReadData(1, 100)
	if eof || string(data) != "defgh" {
		t.Fatalf("second ReadData = %q, eof=%v", data, eof)
	}
	if !s.Empty() {
		t.Fatal("drained SEND entry not removed")
	}
}

func TestReadDataSpansMultipleSends(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindSend, Conn: 1, Data: []byte("aa")})
	s.Enqueue(&Entry{Index: 2, Kind: KindSend, Conn: 1, Data: []byte("bb")})
	s.Enqueue(&Entry{Index: 3, Kind: KindSend, Conn: 2, Data: []byte("ZZ")})
	data, eof := s.ReadData(1, 10)
	if eof || string(data) != "aabb" {
		t.Fatalf("ReadData = %q, eof=%v", data, eof)
	}
	// Conn 2's entry must be untouched.
	data, _ = s.ReadData(2, 10)
	if string(data) != "ZZ" {
		t.Fatalf("conn 2 ReadData = %q", data)
	}
}

func TestReadDataWrongConnBlocked(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindSend, Conn: 7, Data: []byte("for-seven")})
	data, eof := s.ReadData(8, 10)
	if len(data) != 0 || eof {
		t.Fatalf("ReadData for wrong conn = %q, eof=%v", data, eof)
	}
	if s.Len() != 1 {
		t.Fatal("wrong-conn read disturbed the queue")
	}
}

func TestReadDataEOFOnClose(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindClose, Conn: 5})
	data, eof := s.ReadData(5, 10)
	if !eof || len(data) != 0 {
		t.Fatalf("ReadData on CLOSE = %q, eof=%v", data, eof)
	}
	if !s.Empty() {
		t.Fatal("CLOSE not consumed")
	}
	// CLOSE for a different conn is not consumed.
	s.Enqueue(&Entry{Index: 2, Kind: KindClose, Conn: 6})
	if _, eof := s.ReadData(5, 10); eof {
		t.Fatal("consumed another conn's CLOSE")
	}
}

func TestReadDataDataBeforeClose(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindSend, Conn: 1, Data: []byte("final")})
	s.Enqueue(&Entry{Index: 2, Kind: KindClose, Conn: 1})
	data, eof := s.ReadData(1, 10)
	if eof || string(data) != "final" {
		t.Fatalf("ReadData = %q, eof=%v (data must come before EOF)", data, eof)
	}
	data, eof = s.ReadData(1, 10)
	if !eof || len(data) != 0 {
		t.Fatalf("second ReadData = %q, eof=%v", data, eof)
	}
}

func TestTickBubble(t *testing.T) {
	s := New()
	s.Enqueue(&Entry{Index: 1, Kind: KindBubble, NClock: 3})
	s.Enqueue(&Entry{Index: 2, Kind: KindConnect, Conn: 1})
	for i := 0; i < 3; i++ {
		if !s.TickBubble() {
			t.Fatalf("TickBubble #%d returned false", i)
		}
	}
	// Bubble exhausted: head is now the CONNECT.
	if s.TickBubble() {
		t.Fatal("TickBubble on CONNECT head returned true")
	}
	if h, _ := s.Head(); h.Kind != KindConnect {
		t.Fatalf("head after bubble = %v", h.Kind)
	}
}

// TestStarvesIn: the time left until starvation is the whole of d while an
// entry is pending, counts down from the drain (or the creation) to 0, and
// starts over at the next drain.
func TestStarvesIn(t *testing.T) {
	const d = 20 * time.Millisecond
	s := New()
	time.Sleep(2 * time.Millisecond)
	if got := s.StarvesIn(time.Millisecond); got != 0 {
		t.Fatalf("StarvesIn(1ms) = %v on a sequence empty since its creation 2ms ago", got)
	}
	s.Enqueue(&Entry{Index: 1, Kind: KindConnect})
	time.Sleep(2 * time.Millisecond)
	if got := s.StarvesIn(d); got != d {
		t.Fatalf("StarvesIn = %v with an entry pending, want all of %v", got, d)
	}
	s.PopConnect()
	prev := s.StarvesIn(d)
	if prev <= 0 || prev > d {
		t.Fatalf("StarvesIn = %v right after the drain, want in (0, %v]", prev, d)
	}
	for prev > 0 {
		time.Sleep(time.Millisecond)
		got := s.StarvesIn(d)
		if got >= prev {
			t.Fatalf("StarvesIn went %v -> %v on an empty sequence, want a decrease", prev, got)
		}
		prev = got
	}
	if got := s.StarvesIn(d); got != 0 {
		t.Fatalf("StarvesIn = %v on a starved sequence: it must stay 0", got)
	}
	if got := s.StarvesIn(time.Hour); got <= 0 {
		t.Fatalf("StarvesIn(1h) = %v on a sequence starved for %v", got, d)
	}
	// An enqueue and its consumption restart the count.
	s.Enqueue(&Entry{Index: 2, Kind: KindConnect})
	s.PopConnect()
	if got := s.StarvesIn(d); got < d/2 || got > d {
		t.Fatalf("StarvesIn = %v after enqueue + consume, want nearly %v again", got, d)
	}
}

func TestStatsAndBubbleRatio(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		s.Enqueue(&Entry{Index: uint64(i), Kind: KindSend, Conn: 1, Data: []byte("d")})
	}
	for i := 0; i < 2; i++ {
		s.Enqueue(&Entry{Index: uint64(6 + i), Kind: KindBubble, NClock: 5})
	}
	st := s.Stats()
	if st.Enqueued != 8 || st.Bubbles != 2 || st.ClientCalls != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.BubbleRatio(); r < 0.24 || r > 0.26 {
		t.Fatalf("BubbleRatio = %f, want 0.25", r)
	}
	if (Stats{}).BubbleRatio() != 0 {
		t.Fatal("BubbleRatio of empty stats != 0")
	}
}

// Property: any split of a payload into SEND entries and any split of the
// reads returns exactly the original byte stream followed by EOF.
func TestQuickReassembly(t *testing.T) {
	f := func(payload []byte, splits []uint8, reads []uint8) bool {
		s := New()
		rest := payload
		idx := uint64(1)
		for _, sp := range splits {
			if len(rest) == 0 {
				break
			}
			n := int(sp)%len(rest) + 1
			s.Enqueue(&Entry{Index: idx, Kind: KindSend, Conn: 9, Data: append([]byte{}, rest[:n]...)})
			idx++
			rest = rest[n:]
		}
		if len(rest) > 0 {
			s.Enqueue(&Entry{Index: idx, Kind: KindSend, Conn: 9, Data: append([]byte{}, rest...)})
			idx++
		}
		s.Enqueue(&Entry{Index: idx, Kind: KindClose, Conn: 9})
		var got []byte
		for {
			n := 1
			if len(reads) > 0 {
				n = int(reads[0])%64 + 1
				reads = reads[1:]
			}
			data, eof := s.ReadData(9, n)
			got = append(got, data...)
			if eof {
				break
			}
			if len(data) == 0 && len(got) == len(payload) {
				continue // next read consumes the CLOSE
			}
			if len(data) == 0 {
				return false // stuck before stream ended
			}
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeBatch(t *testing.T) {
	burst := []*Entry{
		{Index: 1, Kind: KindConnect, Conn: 5, Port: 8080},
		{Index: 2, Kind: KindSend, Conn: 5, Data: []byte("hello")},
		{Index: 3, Kind: KindBubble, NClock: 1000},
		{Index: 4, Kind: KindSend, Conn: 5, Data: nil},
		{Index: 5, Kind: KindClose, Conn: 5},
	}
	payloads, err := EncodeBatch(burst)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != len(burst) {
		t.Fatalf("%d payloads", len(payloads))
	}
	// Each payload must also decode individually (batch framing is not a
	// separate wire format — every payload is one consensus value).
	for i, p := range payloads {
		e, err := Decode(p)
		if err != nil {
			t.Fatalf("Decode(%d): %v", i, err)
		}
		if e.Kind != burst[i].Kind || e.Conn != burst[i].Conn ||
			e.Port != burst[i].Port || e.NClock != burst[i].NClock ||
			!bytes.Equal(e.Data, burst[i].Data) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, burst[i])
		}
	}
	got, err := DecodeBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range burst {
		if got[i].Kind != burst[i].Kind || got[i].Index != burst[i].Index {
			t.Fatalf("batch entry %d = %+v", i, got[i])
		}
	}
	// The bubble survives in its in-burst position.
	if got[2].Kind != KindBubble || got[2].NClock != 1000 {
		t.Fatalf("bubble lost: %+v", got[2])
	}
}

func TestDecodeBatchRejectsCorrupt(t *testing.T) {
	p1, _ := (&Entry{Kind: KindSend, Conn: 1, Data: []byte("ok")}).Encode()
	if _, err := DecodeBatch([][]byte{p1, []byte("torn")}); err == nil {
		t.Fatal("corrupt batch accepted")
	}
	// Truncated data length mismatch is caught.
	p2, _ := (&Entry{Kind: KindSend, Conn: 1, Data: []byte("0123456789")}).Encode()
	if _, err := Decode(p2[:len(p2)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestEncodeQuickRoundTrip(t *testing.T) {
	f := func(conn uint64, port int32, nclock uint64, data []byte, kindSel uint8) bool {
		e := &Entry{
			Kind: Kind(kindSel%4) + KindConnect, Conn: conn,
			Port: int(port), NClock: nclock, Data: data,
		}
		b, err := e.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		sameData := bytes.Equal(got.Data, e.Data)
		return got.Kind == e.Kind && got.Conn == e.Conn &&
			got.Port == e.Port && got.NClock == e.NClock && sameData
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

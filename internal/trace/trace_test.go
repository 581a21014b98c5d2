package trace

import (
	"fmt"
	"regexp"
	"testing"
)

func TestIdenticalLogsNoDivergence(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	for i := 0; i < 10; i++ {
		a.Record(uint64(i%3), []byte("response"))
		b.Record(uint64(i%3), []byte("response"))
	}
	if d := Diff(a, b); d != nil {
		t.Fatalf("Diff = %+v", d)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ for identical logs")
	}
}

func TestContentDivergenceDetected(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.Record(1, []byte("200 OK"))
	b.Record(1, []byte("404 Not Found"))
	d := Diff(a, b)
	if d == nil || d.Seq != 0 {
		t.Fatalf("Diff = %+v", d)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprints equal for divergent logs")
	}
}

func TestConnDivergenceDetected(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.Record(1, []byte("x"))
	b.Record(2, []byte("x"))
	if d := Diff(a, b); d == nil {
		t.Fatal("conn-order divergence missed")
	}
}

func TestLengthDivergenceDetected(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.Record(1, []byte("x"))
	a.Record(1, []byte("y"))
	b.Record(1, []byte("x"))
	d := Diff(a, b)
	if d == nil || d.Seq != 1 {
		t.Fatalf("Diff = %+v", d)
	}
}

func TestNormalizerMasksPhysicalTime(t *testing.T) {
	re := regexp.MustCompile(`Date: [^\r\n]+`)
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.SetNormalizer(re)
	b.SetNormalizer(re)
	a.Record(1, []byte("HTTP/1.0 200 OK\r\nDate: Mon, 1 Jan\r\n\r\nbody"))
	b.Record(1, []byte("HTTP/1.0 200 OK\r\nDate: Tue, 2 Feb\r\n\r\nbody"))
	if d := Diff(a, b); d != nil {
		t.Fatalf("normalized logs diverge: %+v", d)
	}
	// But a real content difference still shows through.
	a.Record(1, []byte("body-A"))
	b.Record(1, []byte("body-B"))
	if d := Diff(a, b); d == nil {
		t.Fatal("real divergence masked by normalizer")
	}
}

func TestDiffAll(t *testing.T) {
	l0, l1, l2 := NewOutputLog("r0"), NewOutputLog("r1"), NewOutputLog("r2")
	for _, l := range []*OutputLog{l0, l1, l2} {
		l.Record(1, []byte("same"))
	}
	if got := DiffAll([]*OutputLog{l0, l1, l2}); len(got) != 0 {
		t.Fatalf("DiffAll = %v", got)
	}
	l2.Record(1, []byte("extra"))
	got := DiffAll([]*OutputLog{l0, l1, l2})
	if len(got) != 1 {
		t.Fatalf("DiffAll = %v", got)
	}
	if got := DiffAll([]*OutputLog{l0}); got != nil {
		t.Fatal("DiffAll of one log reported divergence")
	}
}

func TestEventsCopy(t *testing.T) {
	l := NewOutputLog("r")
	l.Record(5, []byte("abc"))
	ev := l.Events()
	ev[0].Data[0] = 'Z'
	if l.Events()[0].Data[0] != 'Z' {
		// Data slices may share backing; what matters is the event list
		// itself is copied.
		t.Skip("deep copy of data not required")
	}
	if l.Len() != 1 || l.Name() != "r" {
		t.Fatal("Len/Name broken")
	}
}

// TestHashEventFramingAndAllocs: the fingerprint frames each event as
// "conn|" + data + NUL (fixed by the goldens' output lines), and folding
// one event allocates nothing.
func TestHashEventFramingAndAllocs(t *testing.T) {
	data := []byte("HTTP/1.0 200 OK\r\n\r\nbody")
	for _, conn := range []uint64{0, 7, 1 << 40, ^uint64(0)} {
		framed := append(append([]byte(fmt.Sprintf("%d|", conn)), data...), 0)
		if got, want := hashEvent(fnvOffset, conn, data), fold(fnvOffset, framed); got != want {
			t.Errorf("conn %d: hashEvent = %#x, want %#x", conn, got, want)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(200, func() { sink = hashEvent(sink, 1<<40, data) }); n != 0 {
		t.Errorf("hashEvent allocates %v times per event, want 0", n)
	}
}

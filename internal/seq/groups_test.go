package seq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// collectGroups builds a Groups over n groups that appends emitted entries
// to a slice.
func collectGroups(n int) (*Groups, *[]*Entry) {
	var out []*Entry
	g := NewGroups(n, func(e *Entry) { out = append(out, e) })
	// The pointer must be taken after NewGroups captured the closure over
	// the slice variable, so return the address of the variable itself.
	return g, &out
}

func stampedEntry(stamp, conn uint64) *Entry {
	return &Entry{Kind: KindSend, Conn: conn, Stamp: stamp}
}

// TestGroupsSinglePassThrough: at one group the merge emits every delivery
// at once and in delivery order, whatever the stamps say. Every replicated
// deployment delivers through the merge, so this is the one-log pipeline's
// ordering guarantee; zero and regressing stamps are what a log written
// before a failover (or by a primary with a fresh counter) replays.
func TestGroupsSinglePassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streams := [][]uint64{
		{1, 2, 3, 4, 5},
		{0, 0, 0, 0},
		{9, 8, 7, 7, 1, 0, 12},
	}
	for i := 0; i < 20; i++ {
		st := make([]uint64, 1+rng.Intn(40))
		for j := range st {
			st[j] = uint64(rng.Intn(16))
		}
		streams = append(streams, st)
	}
	for si, stamps := range streams {
		g, out := collectGroups(1)
		for i, st := range stamps {
			e := stampedEntry(st, uint64(i+1))
			if i%3 == 2 {
				e = &Entry{Kind: KindBubble, NClock: 1, Conn: uint64(i + 1), Stamp: st, Vec: []uint64{st}}
			}
			g.Deliver(0, e)
			if len(*out) != i+1 {
				t.Fatalf("stream %d: delivery %d left %d emitted (parked %d)", si, i, len(*out), g.Pending())
			}
		}
		for i, e := range *out {
			if e.Conn != uint64(i+1) {
				t.Fatalf("stream %d %v: emission %d is delivery %d", si, stamps, i, e.Conn-1)
			}
		}
		if st := g.Stats(); st.Pending != 0 || st.Stalls != 0 || st.Emitted != uint64(len(stamps)) {
			t.Fatalf("stream %d: merge stats %+v", si, st)
		}
	}
}

// TestGroupsMergeDeterministic delivers the same per-group committed
// streams under different real-time interleavings and requires the
// identical emission order — the property that keeps replicas' lane
// queues bit-identical no matter how their delivery goroutines race.
func TestGroupsMergeDeterministic(t *testing.T) {
	mkStreams := func() [2][]*Entry {
		var s [2][]*Entry
		// Group 0: stamps 1,4,5,9; group 1: stamps 2,3,7,8 with a bubble
		// vector covering group 0 to keep the merge live at the tail.
		for _, st := range []uint64{1, 4, 5, 9} {
			s[0] = append(s[0], stampedEntry(st, 100+st))
		}
		for _, st := range []uint64{2, 3, 7} {
			s[1] = append(s[1], stampedEntry(st, 200+st))
		}
		s[1] = append(s[1], &Entry{Kind: KindBubble, NClock: 1, Stamp: 8, Vec: []uint64{9, 8}})
		return s
	}
	interleavings := [][]int{
		{0, 0, 0, 0, 1, 1, 1, 1},
		{1, 1, 1, 1, 0, 0, 0, 0},
		{0, 1, 0, 1, 0, 1, 0, 1},
		{1, 0, 1, 0, 1, 0, 1, 0},
		{0, 1, 1, 0, 0, 1, 1, 0},
	}
	// Hand-computed merge: 1..5 in stamp order, 7, then the bubble at
	// eff 8 (its vector lifts W[0] to 9). Group 0's tail entry stamped 9
	// gets eff 10 and legitimately parks — group 1 is empty with
	// watermark 8, so a stamp in (8,10) could still arrive there; the
	// next bubble round releases it in production.
	want := []uint64{1, 2, 3, 4, 5, 7, 8}
	for vi, order := range interleavings {
		g, out := collectGroups(2)
		streams := mkStreams()
		pos := [2]int{}
		for _, gi := range order {
			g.Deliver(gi, streams[gi][pos[gi]])
			pos[gi]++
		}
		var got []uint64
		for _, e := range *out {
			got = append(got, e.Stamp)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interleaving %d emitted %v, want %v", vi, got, want)
		}
		if g.Pending() != 1 {
			t.Fatalf("interleaving %d parked %d entries, want 1", vi, g.Pending())
		}
	}
}

// TestGroupsEmptyGroupGating: entries from one group must not be emitted
// while another group is empty with a watermark below them — a not-yet-
// delivered entry could still sort first — and a bubble vector raising the
// idle group's watermark releases them.
func TestGroupsEmptyGroupGating(t *testing.T) {
	g, out := collectGroups(2)
	g.Deliver(0, stampedEntry(3, 1))
	g.Deliver(0, stampedEntry(5, 2))
	if len(*out) != 0 {
		t.Fatalf("emitted %d entries behind an empty group", len(*out))
	}
	// Group 1's bubble stamped 4 emits after the 3 but before the 5, and
	// its vector {5,4} raises group 1's own watermark... the entry stamped
	// 5 from group 0 then clears the gate (W[1]=4 < 5 still blocks it —
	// until the vector is applied W[1] must reach >= 5).
	g.Deliver(1, &Entry{Kind: KindBubble, NClock: 1, Stamp: 4, Vec: []uint64{5, 6}})
	var stamps []uint64
	for _, e := range *out {
		stamps = append(stamps, e.Stamp)
	}
	if !reflect.DeepEqual(stamps, []uint64{3, 4, 5}) {
		t.Fatalf("emitted stamps %v, want [3 4 5]", stamps)
	}
	if w := g.Watermarks()[1]; w != 6 {
		t.Fatalf("group 1 watermark %d after vector, want 6", w)
	}
}

// TestGroupsStragglerStampBump: a failover can make a new primary assign
// stamps below what its predecessor already committed. The effective-stamp
// bump (eff = max(stamp, W[g]+1)) must keep each group's effective stream
// strictly monotone and the merge order a pure function of stream
// contents.
func TestGroupsStragglerStampBump(t *testing.T) {
	g, out := collectGroups(2)
	g.Deliver(0, stampedEntry(25, 1))
	g.Deliver(1, &Entry{Kind: KindBubble, NClock: 1, Stamp: 20, Vec: []uint64{0, 20}})
	g.Deliver(1, &Entry{Kind: KindBubble, NClock: 1, Stamp: 30, Vec: []uint64{0, 30}})
	// Straggler: a post-failover primary stamps below group 0's emitted
	// prefix. eff = max(5, W[0]+1=26) = 26 keeps group 0 FIFO and sorts
	// it before the parked bubble at 30 — on every replica identically.
	g.Deliver(0, stampedEntry(5, 2))
	var stamps, conns []uint64
	for _, e := range *out {
		stamps = append(stamps, e.Stamp)
		conns = append(conns, e.Conn)
	}
	if !reflect.DeepEqual(stamps, []uint64{20, 25, 5}) || !reflect.DeepEqual(conns, []uint64{0, 1, 2}) {
		t.Fatalf("emitted stamps %v conns %v; want stamps [20 25 5], conns [0 1 2]", stamps, conns)
	}
	if w := g.Watermarks()[0]; w != 26 {
		t.Fatalf("group 0 watermark %d, want 26 (bumped past the straggler)", w)
	}
	if g.Pending() != 1 { // the stamp-30 bubble waits for group 0's watermark
		t.Fatalf("pending %d, want 1", g.Pending())
	}
}

// TestGroupsStampWire round-trips the stamp and vector through the wire
// format alongside the legacy fields.
func TestGroupsStampWire(t *testing.T) {
	for _, e := range []*Entry{
		{Kind: KindSend, Conn: 7, Data: []byte("abc"), Stamp: 42},
		{Kind: KindBubble, NClock: 9, Stamp: 17, Vec: []uint64{17, 3, 0, 8}},
		{Kind: KindConnect, Conn: 1, Port: 80},
	} {
		b, err := e.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		d, err := Decode(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if d.Stamp != e.Stamp || !reflect.DeepEqual(d.Vec, e.Vec) ||
			d.Kind != e.Kind || string(d.Data) != string(e.Data) || d.NClock != e.NClock {
			t.Fatalf("round trip mismatch: %+v vs %+v", d, e)
		}
	}
	// Corrupt vector length must be rejected, not read out of bounds.
	e := &Entry{Kind: KindBubble, NClock: 1, Vec: []uint64{1, 2}}
	b, _ := e.Encode()
	b[49] = 0xff
	b[50] = 0xff
	if _, err := Decode(b); err == nil {
		t.Fatal("decode accepted a vector length past the payload")
	}
}

func BenchmarkGroupsMerge4(b *testing.B) {
	g := NewGroups(4, func(*Entry) {})
	ents := make([]*Entry, 256)
	for i := range ents {
		ents[i] = &Entry{Kind: KindSend, Conn: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ents[i%len(ents)]
		e.Stamp = uint64(i + 1)
		gi := i % 4
		e.Vec = nil
		if gi == 0 {
			e.Kind = KindBubble
			e.Vec = []uint64{uint64(i + 1), uint64(i + 1), uint64(i + 1), uint64(i + 1)}
		} else {
			e.Kind = KindSend
		}
		g.Deliver(gi, e)
	}
	_ = fmt.Sprintf("%d", g.Pending())
}

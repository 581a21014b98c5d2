package flight

import (
	"bytes"
	"strings"
	"testing"
)

// emitN drives a deterministic synthetic event stream into a journal.
func emitN(j *Journal, n int, seed uint64) {
	for i := 0; i < n; i++ {
		u := uint64(i)
		switch i % 4 {
		case 0:
			j.Emit(EvTick, u, PosUnchanged, seed+u%3, 'P')
		case 1:
			j.Emit(EvWait, u, PosUnchanged, seed+u%3, 1<<62|8080)
		case 2:
			j.Emit(EvSend, u, u/2, seed+100, u/2)
		default:
			j.Emit(EvBubble, u, u/2, 1000, u/2)
		}
	}
}

func TestChainDeterministic(t *testing.T) {
	a := newJournal(0, 128, 16, 8)
	b := newJournal(0, 128, 16, 8)
	emitN(a, 500, 7)
	emitN(b, 500, 7)
	if a.Chain() != b.Chain() {
		t.Fatalf("identical streams produced different chains: %#x vs %#x", a.Chain(), b.Chain())
	}
	c := newJournal(0, 128, 16, 8)
	emitN(c, 500, 8) // different thread ids
	if a.Chain() == c.Chain() {
		t.Fatal("different streams produced equal chains")
	}
}

func TestRingBoundedAndOrdered(t *testing.T) {
	j := newJournal(0, 64, 16, 8)
	emitN(j, 200, 1)
	if got := j.Len(); got != 200 {
		t.Fatalf("Len = %d, want 200", got)
	}
	ents := j.Entries()
	if len(ents) != 64 {
		t.Fatalf("retained %d entries, want ring capacity 64", len(ents))
	}
	for i, e := range ents {
		if want := uint64(200 - 64 + i); e.Idx != want {
			t.Fatalf("entry %d has Idx %d, want %d", i, e.Idx, want)
		}
	}
}

func TestAnnotationsNotFolded(t *testing.T) {
	a := newJournal(0, 64, 0, 0)
	b := newJournal(0, 64, 0, 0)
	a.Emit(EvTick, 1, PosUnchanged, 2, 'P')
	b.Emit(EvTick, 1, PosUnchanged, 2, 'P')
	a.Note(EvViewChange, 5, 3, 1, "view=3 primary=1")
	if a.Chain() != b.Chain() {
		t.Fatal("annotation event changed the chain")
	}
}

func TestSegmentsAndMarks(t *testing.T) {
	j := newJournal(2, 1024, 16, 8)
	for i := 1; i <= 100; i++ {
		j.Emit(EvSend, uint64(i), uint64(i), 42, uint64(i))
	}
	segs := j.Segments()
	if len(segs) != 100/16 {
		t.Fatalf("got %d segments, want %d", len(segs), 100/16)
	}
	for i, s := range segs {
		if want := uint64(16 * (i + 1)); s.End != want {
			t.Fatalf("segment %d ends at %d, want %d", i, s.End, want)
		}
	}
	marks := j.MarksSince(0, 0)
	if len(marks) != 100/8 {
		t.Fatalf("got %d marks, want %d", len(marks), 100/8)
	}
	for _, m := range marks {
		if m.Pos%8 != 0 {
			t.Fatalf("mark at pos %d, want multiples of 8 (pos advances by 1 per emit here)", m.Pos)
		}
		got, ok, within := j.MarkAt(m.Pos)
		if !ok || !within || got.Chain != m.Chain {
			t.Fatalf("MarkAt(%d) = %+v ok=%v within=%v", m.Pos, got, ok, within)
		}
	}
	if _, ok, within := j.MarkAt(13); ok || !within {
		t.Fatalf("MarkAt(13): ok=%v within=%v, want miss inside window", ok, within)
	}
}

func TestMarksMatchAcrossBubbleCoalescing(t *testing.T) {
	// Positions can jump past a mark interval without an emission at the
	// exact multiple (bubble clocks advance pos silently); the mark must
	// still land deterministically on the next emission.
	a := newJournal(0, 128, 0, 10)
	b := newJournal(0, 128, 0, 10)
	for _, j := range []*Journal{a, b} {
		j.Emit(EvTick, 1, PosUnchanged, 1, 'P')
		j.Emit(EvBubble, 2, 27, 1000, 27) // pos jumps 0 -> 27
		j.Emit(EvSend, 3, 28, 9, 28)
	}
	am, bm := a.MarksSince(0, 0), b.MarksSince(0, 0)
	if len(am) != 1 || len(bm) != 1 || am[0] != bm[0] {
		t.Fatalf("marks differ: %+v vs %+v", am, bm)
	}
	if am[0].Pos != 27 {
		t.Fatalf("mark pos = %d, want 27 (first emission at/after the interval)", am[0].Pos)
	}
}

func TestCollectAudit(t *testing.T) {
	r := New("r0", 1, Options{Capacity: 256, SegEvery: 32, AuditEvery: 8})
	var cur AuditCursor
	if got := r.CollectAudit(&cur); got != nil {
		t.Fatalf("fresh recorder collected %v, want nil", got)
	}
	for i := 1; i <= 24; i++ {
		r.Lane(0).Emit(EvSend, uint64(i), uint64(i), 1, uint64(i))
	}
	got := r.CollectAudit(&cur)
	for _, s := range got {
		if s.Lane != 0 || s.Pos%8 != 0 {
			t.Fatalf("bad lane sample %+v", s)
		}
	}
	if len(got) != 3 {
		t.Fatalf("collected %d samples, want 3", len(got))
	}
	// Second collection with no new marks: nothing.
	if got := r.CollectAudit(&cur); got != nil {
		t.Fatalf("re-collection returned %v, want nil", got)
	}
}

// TestMarksCoverOutputs: an output is a comparable lane event, so two
// lanes that consume the same positions but reply with different bytes
// agree on every mark before the reply and on none after it.
func TestMarksCoverOutputs(t *testing.T) {
	run := func(digest uint64) []AuditSample {
		r := New("r", 1, Options{AuditEvery: 8})
		for i := uint64(1); i <= 24; i++ {
			r.Lane(0).Emit(EvSend, i, i, 1, i)
			if i == 12 {
				r.Lane(0).Emit(EvOutput, i, PosUnchanged, 1, digest)
			}
		}
		return r.CollectAudit(&AuditCursor{})
	}
	a, b := run(0xabc), run(0xabd)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("collected %d and %d samples, want 3 each", len(a), len(b))
	}
	for i := range a {
		if equal, before := a[i] == b[i], a[i].Pos < 12; equal != before {
			t.Errorf("mark at pos %d: equal=%v, want %v", a[i].Pos, equal, before)
		}
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	j := newJournal(0, 1024, 256, 64)
	n := testing.AllocsPerRun(1000, func() {
		j.Emit(EvTick, 1, PosUnchanged, 2, 'P')
	})
	if n != 0 {
		t.Fatalf("Emit allocates %.1f per call, want 0", n)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Lane(0).Emit(EvTick, 1, 2, 3, 4)
	r.Control().Note(EvViewChange, 1, 2, 3, "x")
	if got := r.CollectAudit(&AuditCursor{}); got != nil {
		t.Fatalf("nil recorder collected %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crane-flight-journal") {
		t.Fatalf("nil dump missing meta line: %q", buf.String())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New("replica-0", 2, Options{Capacity: 64, SegEvery: 16, AuditEvery: 8})
	emitN(r.Lane(0), 200, 1)
	emitN(r.Lane(1), 40, 2)
	r.Control().Note(EvViewChange, 9, 2, 1, "view=2 primary=1")
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParseJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Replica != "replica-0" || d.LaneCount != 2 || d.AuditEvery != 8 {
		t.Fatalf("meta mismatch: %+v", d)
	}
	l0 := d.Lanes[0]
	if l0 == nil || l0.Dropped != 200-64 || len(l0.Entries) != 64 {
		t.Fatalf("lane 0 parse: %+v", l0)
	}
	want := r.Lane(0).Entries()
	for i := range want {
		w := want[i]
		w.Detail = ""
		if l0.Entries[i] != w {
			t.Fatalf("entry %d round-trip mismatch:\n got %+v\nwant %+v", i, l0.Entries[i], w)
		}
	}
	if len(l0.Segments) == 0 {
		t.Fatal("lane 0 segments missing from dump")
	}
	ctl := d.Lanes[-1]
	if ctl == nil || len(ctl.Entries) != 1 || ctl.Entries[0].Detail != "view=2 primary=1" {
		t.Fatalf("control journal parse: %+v", ctl)
	}
}

func TestFirstDivergenceExact(t *testing.T) {
	ra := New("ra", 1, Options{Capacity: 2048, SegEvery: 16, AuditEvery: 8})
	rb := New("rb", 1, Options{Capacity: 2048, SegEvery: 16, AuditEvery: 8})
	for i := 0; i < 300; i++ {
		a, b := uint64(i%3), uint64('P')
		ra.Lane(0).Emit(EvTick, uint64(i), PosUnchanged, a, b)
		if i == 137 {
			// Seeded divergence: replica b schedules a different thread.
			rb.Lane(0).Emit(EvTick, uint64(i), PosUnchanged, a+7, b)
			continue
		}
		rb.Lane(0).Emit(EvTick, uint64(i), PosUnchanged, a, b)
	}
	da := parse(t, ra)
	db := parse(t, rb)
	d := FirstDivergence(da, db)
	if d == nil || !d.Exact {
		t.Fatalf("FirstDivergence = %+v, want exact", d)
	}
	if d.Idx != 137 || d.Lane != 0 {
		t.Fatalf("localized to lane %d idx %d, want lane 0 idx 137", d.Lane, d.Idx)
	}
	if d.A.A == d.B.A {
		t.Fatalf("divergent entries should differ: %+v vs %+v", d.A, d.B)
	}
	var rep bytes.Buffer
	Report(&rep, da, db, d, 3)
	if !strings.Contains(rep.String(), ">>") || !strings.Contains(rep.String(), "idx 137") {
		t.Fatalf("report missing marker/localization:\n%s", rep.String())
	}
}

func TestFirstDivergenceEqual(t *testing.T) {
	ra := New("ra", 2, Options{Capacity: 256, SegEvery: 16, AuditEvery: 8})
	rb := New("rb", 2, Options{Capacity: 256, SegEvery: 16, AuditEvery: 8})
	for _, r := range []*Recorder{ra, rb} {
		emitN(r.Lane(0), 100, 1)
		emitN(r.Lane(1), 77, 2)
	}
	if d := FirstDivergence(parse(t, ra), parse(t, rb)); d != nil {
		t.Fatalf("equal journals reported divergence: %+v", d)
	}
	// One replica ahead: still no divergence (prefix property).
	emitN(ra.Lane(0), 20, 1)
	if d := FirstDivergence(parse(t, ra), parse(t, rb)); d != nil {
		t.Fatalf("longer-but-consistent journal reported divergence: %+v", d)
	}
}

func TestFirstDivergenceEvictedFallsBackToSegments(t *testing.T) {
	// Tiny ring, long stream: the divergent entry is evicted, but the
	// segment ring still bounds it.
	ra := New("ra", 1, Options{Capacity: 64, SegEvery: 16, AuditEvery: 8})
	rb := New("rb", 1, Options{Capacity: 64, SegEvery: 16, AuditEvery: 8})
	for i := 0; i < 2000; i++ {
		a := uint64(i % 3)
		ra.Lane(0).Emit(EvTick, uint64(i), PosUnchanged, a, 'P')
		if i == 100 {
			a += 5 // divergence far before the retained window
		}
		rb.Lane(0).Emit(EvTick, uint64(i), PosUnchanged, a, 'P')
	}
	d := FirstDivergence(parse(t, ra), parse(t, rb))
	if d == nil {
		t.Fatal("divergence not detected")
	}
	if d.Exact {
		t.Fatalf("expected non-exact localization, got %+v", d)
	}
	if d.SegEnd == 0 || d.SegEnd > 112 {
		t.Fatalf("segment bound %d, want first divergent segment boundary (<= 112)", d.SegEnd)
	}
}

func parse(t *testing.T, r *Recorder) *Dump {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParseJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

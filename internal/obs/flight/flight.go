// Package flight is the divergence-forensics flight recorder: an
// always-on, bounded journal of the determinism-relevant event stream a
// CRANE replica executes — scheduler ticks, wait/signal keys, cross-lane
// merge stamps, Paxos-sequence consumption acts, network outputs — plus
// an annotation journal for events that are *about* the run but not
// themselves replica-deterministic (speculation windows, view changes,
// sharded commits).
//
// Comparable events are stored in per-lane rings, each entry carrying the
// lane's logical clock, its sequence consumption position, and a rolling
// FNV-1a chain hash folded over every comparable event so far. Two
// replicas executing the same committed stream record byte-identical
// per-lane event streams, so equal chain values at equal entry indexes
// mean equal prefixes — equal schedules and equal per-lane outputs — and
// the first divergent scheduling decision or reply can be found by
// binary search over the chains instead of replaying logs.
// Periodic segment checksums extend that comparison horizon far beyond
// the entry ring: the ring retains the last few thousand entries, the
// segment ring summarizes the chain every segEvery entries over a much
// longer window.
//
// Audit marks are the live half: every auditEvery-th consumption
// position the journal snapshots (pos, chain); backups piggyback their
// freshest marks onto AcceptOK messages and the leader cross-checks them
// against its own marks, turning "the run is split-brained" into an
// alarm raised while the run is still going.
//
// Writer discipline: all comparable-event emission for a lane happens
// while holding that lane's DMT token (scheduler ticks under the
// scheduler mutex, consumption acts under the sequence mutex, outputs
// inside the send wrapper's turn — each only ever by the thread holding
// the lane token), so each journal has a single logical writer. The
// per-journal mutex is therefore uncontended on the hot path; it exists
// to fence rare dump/audit readers, and Emit allocates nothing.
package flight

import (
	"fmt"
	"io"
	"sync"
)

// Comparable event kinds: folded into the rolling chain hash. These are
// exactly the events that are replica-deterministic under the CRANE gate
// (idle-thread ticks are excluded upstream, mirroring ScheduleSum).
// Outputs are among them: §7.2 judges consistency by the replicas'
// network outputs, so a reply that differs with an unchanged schedule
// still splits the chain.
const (
	EvTick    uint8 = 1 // scheduler tick: A=thread id, B=op byte
	EvWait    uint8 = 2 // thread parked on a wait key: A=thread id, B=key
	EvSignal  uint8 = 3 // waiter woken: A=woken thread id, B=key
	EvMerge   uint8 = 4 // cross-lane merge linearized: A=thread id, B=stamp
	EvConnect uint8 = 5 // CONNECT consumed: A=conn, B=pos after
	EvSend    uint8 = 6 // SEND fully consumed: A=conn, B=pos after
	EvClose   uint8 = 7 // CLOSE consumed: A=conn, B=pos after
	EvBubble  uint8 = 8 // time bubble exhausted: A=granted clocks, B=pos after
	EvOutput  uint8 = 9 // network output sent: A=conn, B=FNV-1a digest of the bytes
)

// Annotation event kinds: recorded in the control journal for forensics
// but never folded into a chain — their timing is physical (view changes,
// speculation) so folding them would raise false alarms.
const (
	EvSpecOpen    uint8 = 65 // speculation window opened: A=entries fed
	EvSpecConfirm uint8 = 66 // window confirmed: A=confirmed entries
	EvSpecAbort   uint8 = 67 // window aborted: A=entries, B=1 if contaminated (the replica fail-stops)
	EvViewChange  uint8 = 70 // consensus view change: A=view, B=primary
	EvGroupCommit uint8 = 71 // sharded consensus commit: A=Paxos group, B=per-group slot
)

// Comparable reports whether kind participates in the chain hash.
func Comparable(kind uint8) bool { return kind < 64 }

// KindName returns the JSONL name for an event kind.
func KindName(kind uint8) string {
	switch kind {
	case EvTick:
		return "tick"
	case EvWait:
		return "wait"
	case EvSignal:
		return "signal"
	case EvMerge:
		return "merge"
	case EvConnect:
		return "connect"
	case EvSend:
		return "send"
	case EvClose:
		return "close"
	case EvBubble:
		return "bubble"
	case EvOutput:
		return "output"
	case EvSpecOpen:
		return "spec_open"
	case EvSpecConfirm:
		return "spec_confirm"
	case EvSpecAbort:
		return "spec_abort"
	case EvViewChange:
		return "view_change"
	case EvGroupCommit:
		return "group_commit"
	}
	return fmt.Sprintf("kind%d", kind)
}

// kindByName is the inverse of KindName for the parser.
func kindByName(name string) uint8 {
	for k := uint8(1); k <= EvOutput; k++ {
		if KindName(k) == name {
			return k
		}
	}
	for k := EvSpecOpen; k <= EvGroupCommit; k++ {
		if KindName(k) == name {
			return k
		}
	}
	return 0
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Entry is one journaled event.
type Entry struct {
	Idx    uint64 // position in this journal's stream
	Kind   uint8
	Lane   int32
	Clock  uint64 // lane logical clock at emission (informational, not folded)
	Pos    uint64 // lane sequence consumption position at emission
	A, B   uint64
	Chain  uint64 // rolling chain AFTER folding this entry (annotations: unchanged)
	Detail string // optional human annotation (allocating path only)
}

// Segment summarizes the chain at a 256-entry boundary; the segment ring
// outlives the entry ring, extending the comparable horizon.
type Segment struct {
	End   uint64 // stream index just past the segment (multiple of segEvery)
	Chain uint64
}

// Mark is an audit snapshot: the chain as of the emission where the
// consumption position first reached a multiple of auditEvery.
type Mark struct {
	Pos   uint64
	Chain uint64
}

// AuditSample is one lane's mark shipped across the consensus transport
// for the live audit.
type AuditSample struct {
	Lane  int32
	Pos   uint64
	Chain uint64
}

// Defaults.
const (
	DefaultCapacity   = 4096
	DefaultSegEvery   = 256
	DefaultAuditEvery = 64
	segCap            = 512
	markCap           = 256
)

// Journal is one lane's bounded single-writer event ring.
type Journal struct {
	mu   sync.Mutex
	lane int32

	buf   []Entry
	head  uint64 // total entries emitted
	chain uint64

	segEvery uint64
	segs     []Segment
	seghead  uint64

	auditEvery uint64
	marks      []Mark
	markhead   uint64
	nextMark   uint64
	lastPos    uint64
}

// PosUnchanged tells Emit the caller has no consumption position (pure
// scheduler events); the journal substitutes the last position seen.
const PosUnchanged = ^uint64(0)

func newJournal(lane int32, capacity int, segEvery, auditEvery uint64) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{
		lane:       lane,
		buf:        make([]Entry, capacity),
		chain:      fnvOffset,
		segEvery:   segEvery,
		segs:       make([]Segment, 0, segCap),
		auditEvery: auditEvery,
		marks:      make([]Mark, 0, markCap),
		nextMark:   auditEvery,
	}
}

// Emit journals one scalar event. This is the preallocated hot path: it
// takes no interface values, formats nothing, and allocates nothing; the
// per-journal mutex is uncontended because the lane token already
// serializes every writer. Safe on a nil journal (no-op), so callers
// need no recorder-enabled branch.
func (j *Journal) Emit(kind uint8, clock, pos, a, b uint64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.emitLocked(kind, clock, pos, a, b, "")
	j.mu.Unlock()
}

// Note journals one annotated event. The detail string escapes to the
// heap, so this is the allocating path: annotation-only, never from a
// per-tick loop (cranevet's obsreg analyzer enforces this in the
// scheduler and sequence hot paths).
func (j *Journal) Note(kind uint8, clock, a, b uint64, detail string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.emitLocked(kind, clock, PosUnchanged, a, b, detail)
	j.mu.Unlock()
}

func (j *Journal) emitLocked(kind uint8, clock, pos, a, b uint64, detail string) {
	if pos == PosUnchanged {
		pos = j.lastPos
	} else {
		j.lastPos = pos
	}
	if Comparable(kind) {
		h := j.chain
		h = (h ^ uint64(kind)) * fnvPrime
		h = (h ^ a) * fnvPrime
		h = (h ^ b) * fnvPrime
		j.chain = h
	}
	idx := j.head
	j.head++
	e := &j.buf[idx%uint64(len(j.buf))]
	e.Idx, e.Kind, e.Lane = idx, kind, j.lane
	e.Clock, e.Pos, e.A, e.B = clock, pos, a, b
	e.Chain, e.Detail = j.chain, detail
	if j.segEvery != 0 && j.head%j.segEvery == 0 {
		if len(j.segs) < segCap {
			j.segs = append(j.segs, Segment{End: j.head, Chain: j.chain})
		} else {
			j.segs[j.seghead%segCap] = Segment{End: j.head, Chain: j.chain}
		}
		j.seghead++
	}
	if j.auditEvery != 0 && pos >= j.nextMark {
		if len(j.marks) < markCap {
			j.marks = append(j.marks, Mark{Pos: pos, Chain: j.chain})
		} else {
			j.marks[j.markhead%markCap] = Mark{Pos: pos, Chain: j.chain}
		}
		j.markhead++
		j.nextMark = (pos/j.auditEvery + 1) * j.auditEvery
	}
}

// Len returns the number of entries emitted since the last reset.
func (j *Journal) Len() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// Chain returns the current rolling chain hash.
func (j *Journal) Chain() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.chain
}

// Entries returns a copy of the retained entries, oldest first.
func (j *Journal) Entries() []Entry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entriesLocked()
}

func (j *Journal) entriesLocked() []Entry {
	n := j.head
	capacity := uint64(len(j.buf))
	if n > capacity {
		n = capacity
	}
	out := make([]Entry, 0, n)
	for i := j.head - n; i < j.head; i++ {
		out = append(out, j.buf[i%capacity])
	}
	return out
}

// Segments returns a copy of the retained segment checksums, oldest
// first.
func (j *Journal) Segments() []Segment {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Segment, len(j.segs))
	if j.seghead <= segCap {
		copy(out, j.segs)
		return out
	}
	// Ring wrapped: oldest slot is seghead%segCap.
	start := j.seghead % segCap
	copy(out, j.segs[start:])
	copy(out[segCap-start:], j.segs[:start])
	return out
}

// MarksSince returns retained audit marks with Pos > after, oldest
// first, capped at max.
func (j *Journal) MarksSince(after uint64, max int) []Mark {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Mark
	n := uint64(len(j.marks))
	start := uint64(0)
	if j.markhead > n {
		start = j.markhead - n
	}
	for i := start; i < j.markhead; i++ {
		m := j.marks[i%markCap]
		if m.Pos > after {
			out = append(out, m)
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// MarkAt looks up the retained mark recorded at exactly pos; within
// reports whether pos falls inside the retained mark window (so a miss
// with within==true means the replicas' marks are misaligned — itself
// divergence evidence).
func (j *Journal) MarkAt(pos uint64) (m Mark, ok, within bool) {
	if j == nil {
		return Mark{}, false, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := uint64(len(j.marks))
	if n == 0 {
		return Mark{}, false, false
	}
	start := uint64(0)
	if j.markhead > n {
		start = j.markhead - n
	}
	oldest := j.marks[start%markCap].Pos
	newest := j.marks[(j.markhead-1)%markCap].Pos
	within = pos >= oldest && pos <= newest
	for i := start; i < j.markhead; i++ {
		if c := j.marks[i%markCap]; c.Pos == pos {
			return c, true, within
		}
	}
	return Mark{}, false, within
}

// NewestMark returns the most recent retained audit mark.
func (j *Journal) NewestMark() (Mark, bool) {
	if j == nil {
		return Mark{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.markhead == 0 || len(j.marks) == 0 {
		return Mark{}, false
	}
	return j.marks[(j.markhead-1)%markCap], true
}

// Recorder aggregates one replica's journals: one comparable journal per
// execution lane plus a control journal for annotations. A nil recorder
// is fully inert, so "recorder off" costs one nil check per call site.
type Recorder struct {
	name  string
	lanes []*Journal
	ctl   *Journal

	auditEvery uint64
}

// Options configures a Recorder; zero values take defaults.
type Options struct {
	Capacity   int    // entries retained per journal (default 4096)
	SegEvery   uint64 // entries per segment checksum (default 256)
	AuditEvery uint64 // consumed positions per audit mark (default 64)
}

// New creates a recorder for a replica with the given lane count.
func New(name string, lanes int, opts Options) *Recorder {
	if lanes < 1 {
		lanes = 1
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.SegEvery == 0 {
		opts.SegEvery = DefaultSegEvery
	}
	if opts.AuditEvery == 0 {
		opts.AuditEvery = DefaultAuditEvery
	}
	r := &Recorder{
		name:       name,
		ctl:        newJournal(-1, opts.Capacity, 0, 0),
		auditEvery: opts.AuditEvery,
	}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, newJournal(int32(i), opts.Capacity, opts.SegEvery, opts.AuditEvery))
	}
	return r
}

// Name returns the replica name the recorder was created with.
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Lanes returns the number of lane journals.
func (r *Recorder) Lanes() int {
	if r == nil {
		return 0
	}
	return len(r.lanes)
}

// Lane returns lane i's journal (nil out of range or on a nil recorder,
// which downstream Emit calls tolerate).
func (r *Recorder) Lane(i int) *Journal {
	if r == nil || i < 0 || i >= len(r.lanes) {
		return nil
	}
	return r.lanes[i]
}

// Control returns the annotation journal.
func (r *Recorder) Control() *Journal {
	if r == nil {
		return nil
	}
	return r.ctl
}

// AuditEvery returns the configured mark interval.
func (r *Recorder) AuditEvery() uint64 {
	if r == nil {
		return 0
	}
	return r.auditEvery
}

// AuditCursor tracks which marks a backup has already piggybacked, so
// each AcceptOK carries only fresh samples (usually none).
type AuditCursor struct {
	mu      sync.Mutex
	lanePos []uint64
}

// maxSamplesPerLane bounds how many marks one message carries per lane.
const maxSamplesPerLane = 4

// CollectAudit gathers fresh audit samples since the cursor's last call.
// It returns nil (no allocation) when nothing new was marked — the
// common case, since marks appear only every auditEvery-th consumed
// position.
func (r *Recorder) CollectAudit(cur *AuditCursor) []AuditSample {
	if r == nil || cur == nil {
		return nil
	}
	cur.mu.Lock()
	defer cur.mu.Unlock()
	if cur.lanePos == nil {
		cur.lanePos = make([]uint64, len(r.lanes))
	}
	var out []AuditSample
	for i, j := range r.lanes {
		for _, m := range j.MarksSince(cur.lanePos[i], maxSamplesPerLane) {
			out = append(out, AuditSample{Lane: int32(i), Pos: m.Pos, Chain: m.Chain})
			if m.Pos > cur.lanePos[i] {
				cur.lanePos[i] = m.Pos
			}
		}
	}
	return out
}

// WriteJSONL dumps the recorder — a meta line, then every retained
// segment and entry of each journal (control journal last) — one JSON
// object per line, the format served at /journal and read back by
// ParseJournal/crane-inspect.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintf(w, "{\"meta\":\"crane-flight-journal\",\"replica\":\"\",\"lanes\":0}\n")
		return err
	}
	bw := newLineWriter(w)
	bw.printf("{\"meta\":\"crane-flight-journal\",\"replica\":%q,\"lanes\":%d,\"audit_every\":%d}\n",
		r.name, len(r.lanes), r.auditEvery)
	for _, j := range r.lanes {
		if err := j.writeJSONL(bw); err != nil {
			return err
		}
	}
	if err := r.ctl.writeJSONL(bw); err != nil {
		return err
	}
	return bw.flush()
}

func (j *Journal) writeJSONL(bw *lineWriter) error {
	j.mu.Lock()
	entries := j.entriesLocked()
	head := j.head
	j.mu.Unlock()
	for _, s := range j.Segments() {
		bw.printf("{\"lane\":%d,\"seg_end\":%d,\"chain\":%d}\n",
			j.lane, s.End, s.Chain)
	}
	if head > uint64(len(entries)) {
		bw.printf("{\"lane\":%d,\"truncated\":true,\"dropped\":%d}\n",
			j.lane, head-uint64(len(entries)))
	}
	for i := range entries {
		e := &entries[i]
		if e.Detail == "" {
			bw.printf("{\"lane\":%d,\"idx\":%d,\"kind\":%q,\"clock\":%d,\"pos\":%d,\"a\":%d,\"b\":%d,\"chain\":%d}\n",
				e.Lane, e.Idx, KindName(e.Kind), e.Clock, e.Pos, e.A, e.B, e.Chain)
		} else {
			bw.printf("{\"lane\":%d,\"idx\":%d,\"kind\":%q,\"clock\":%d,\"pos\":%d,\"a\":%d,\"b\":%d,\"chain\":%d,\"detail\":%q}\n",
				e.Lane, e.Idx, KindName(e.Kind), e.Clock, e.Pos, e.A, e.B, e.Chain, e.Detail)
		}
	}
	return bw.err
}

// lineWriter batches Fprintf lines and carries the first error.
type lineWriter struct {
	w   io.Writer
	err error
}

func newLineWriter(w io.Writer) *lineWriter { return &lineWriter{w: w} }

func (l *lineWriter) printf(format string, args ...any) {
	if l.err != nil {
		return
	}
	_, l.err = fmt.Fprintf(l.w, format, args...)
}

func (l *lineWriter) flush() error { return l.err }

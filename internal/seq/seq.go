// Package seq implements the "PAXOS request sequence" of §3.2: the ordered
// queue of decided client socket calls and inserted time bubbles that sits
// between a replica's proxy process and its DMT-scheduled server process.
// (The original uses Boost shared memory guarded by lockf; here both sides
// are in-process and a mutex suffices — the contract is identical.)
//
// The proxy appends entries in global consensus order; the DMT gate and the
// socket wrappers consume them: bubbles are decremented one logical clock
// per synchronization operation, CONNECT entries are consumed by accept(),
// SEND entries are consumed — possibly partially, by byte count — by
// recv(), and CLOSE entries make the next recv() on that connection return
// EOF (Fig. 10/11).
package seq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/obs"
	"crane/internal/obs/flight"
)

// Kind discriminates sequence entries.
type Kind uint8

const (
	// KindConnect is a client connect() observed by the primary's proxy.
	KindConnect Kind = iota + 1
	// KindSend is a client send(); Data carries the payload.
	KindSend
	// KindClose is a client close().
	KindClose
	// KindBubble is a time bubble granting NClock logical clocks during
	// which no client socket call is admitted (§4).
	KindBubble
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindConnect:
		return "CONNECT"
	case KindSend:
		return "SEND"
	case KindClose:
		return "CLOSE"
	case KindBubble:
		return "BUBBLE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Entry is one decided consensus value: a client socket call or a time
// bubble, tagged with its global index (the viewstamp sequence number that
// also keys checkpoints, §5.1–§5.2).
type Entry struct {
	Index  uint64 // global consensus index
	Req    uint64 // lifecycle request id assigned at proxy admission (0: none)
	Kind   Kind
	Conn   uint64 // connection id for Connect/Send/Close
	Port   int    // server port the client dialed (Connect only)
	Data   []byte // payload (Send only)
	NClock uint64 // remaining logical clocks (Bubble only)

	// Stamp is the admission-order logical stamp assigned by the primary's
	// burst submitter, drawn from one per-replica counter shared by every
	// Paxos group. Within a group it is strictly monotone, so the
	// merge (Groups) can deterministically interleave the groups'
	// committed streams by stamp order.
	Stamp uint64

	// Vec is a bubble's vector of per-group logical-clock stamps (ISSUE 10):
	// Vec[h] is the newest stamp the proposing primary had assigned to group
	// h when the bubble was submitted. The merge applies it as a watermark
	// floor on emission, letting lanes consume group g's entries up to the
	// vector stamp even while other groups are idle. Nil for client calls.
	Vec []uint64

	// Spec marks an entry enqueued speculatively by the proposing replica
	// before its consensus commit (ISSUE 7). A speculative entry is
	// consumed by the DMT exactly like a committed one; when the commit
	// arrives and matches, ClearSpec promotes it in place, and when the
	// speculation aborts, TruncateSpec removes the still-queued suffix.
	// In-memory only: the flag never crosses the wire.
	Spec bool

	// enqueuedAt is stamped by Enqueue for the queue-wait instrument;
	// it never crosses the wire.
	enqueuedAt time.Time
}

// Wire format: a fixed little-endian header followed by the payload. (The
// Index field round-trips for completeness, but the authoritative value is
// the consensus slot assigned on delivery. Req rides the wire so every
// replica's lifecycle trace keys stages by the same request id.)
//
//	index(8) | req(8) | kind(1) | conn(8) | port(8) | nclock(8) | stamp(8) | len(vec)(2) | len(data)(4) | vec(8·len) | data
const entryHeaderSize = 8 + 8 + 1 + 8 + 8 + 8 + 8 + 2 + 4

// ErrBadEntry is returned by Decode for a malformed payload.
var ErrBadEntry = errors.New("seq: malformed entry payload")

// wireSize returns the encoded length of e.
func (e *Entry) wireSize() int { return entryHeaderSize + 8*len(e.Vec) + len(e.Data) }

// marshal writes e into b, which must be exactly wireSize() long.
func (e *Entry) marshal(b []byte) {
	binary.LittleEndian.PutUint64(b[0:8], e.Index)
	binary.LittleEndian.PutUint64(b[8:16], e.Req)
	b[16] = byte(e.Kind)
	binary.LittleEndian.PutUint64(b[17:25], e.Conn)
	binary.LittleEndian.PutUint64(b[25:33], uint64(int64(e.Port)))
	binary.LittleEndian.PutUint64(b[33:41], e.NClock)
	binary.LittleEndian.PutUint64(b[41:49], e.Stamp)
	binary.LittleEndian.PutUint16(b[49:51], uint16(len(e.Vec)))
	binary.LittleEndian.PutUint32(b[51:55], uint32(len(e.Data)))
	off := entryHeaderSize
	for _, v := range e.Vec {
		binary.LittleEndian.PutUint64(b[off:off+8], v)
		off += 8
	}
	copy(b[off:], e.Data)
}

// unmarshal parses b into e. The Data slice aliases b (consumers only ever
// reslice it), so callers must not mutate the payload afterwards; Vec is
// decoded into fresh storage (bubbles only, so the delivery path stays
// allocation-free for client calls).
func (e *Entry) unmarshal(b []byte) error {
	if len(b) < entryHeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrBadEntry, len(b))
	}
	kind := Kind(b[16])
	if kind < KindConnect || kind > KindBubble {
		return fmt.Errorf("%w: kind %d", ErrBadEntry, b[16])
	}
	nvec := int(binary.LittleEndian.Uint16(b[49:51]))
	dlen := binary.LittleEndian.Uint32(b[51:55])
	if int(dlen) != len(b)-entryHeaderSize-8*nvec {
		return fmt.Errorf("%w: length %d vs %d payload bytes", ErrBadEntry,
			dlen, len(b)-entryHeaderSize-8*nvec)
	}
	e.Index = binary.LittleEndian.Uint64(b[0:8])
	e.Req = binary.LittleEndian.Uint64(b[8:16])
	e.Kind = kind
	e.Conn = binary.LittleEndian.Uint64(b[17:25])
	e.Port = int(int64(binary.LittleEndian.Uint64(b[25:33])))
	e.NClock = binary.LittleEndian.Uint64(b[33:41])
	e.Stamp = binary.LittleEndian.Uint64(b[41:49])
	off := entryHeaderSize
	if nvec > 0 {
		e.Vec = make([]uint64, nvec)
		for i := range e.Vec {
			e.Vec[i] = binary.LittleEndian.Uint64(b[off : off+8])
			off += 8
		}
	} else {
		e.Vec = nil
	}
	if dlen > 0 {
		e.Data = b[off:]
	} else {
		e.Data = nil
	}
	return nil
}

// Encode serializes an entry for the consensus log.
func (e *Entry) Encode() ([]byte, error) {
	b := make([]byte, e.wireSize())
	e.marshal(b)
	return b, nil
}

// Decode deserializes an entry from the consensus log.
func Decode(b []byte) (*Entry, error) {
	e := new(Entry)
	if err := e.unmarshal(b); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodeInto deserializes an entry into caller-provided storage — the
// scratch-reuse form of Decode for delivery loops that arena-allocate
// their entries. On error e is left in an unspecified state.
func DecodeInto(e *Entry, b []byte) error { return e.unmarshal(b) }

// EncodeBatch serializes a burst of entries into per-entry consensus
// payloads sharing one backing allocation — the marshaling primitive for
// ProposeBatch (no per-entry encoder or buffer churn).
func EncodeBatch(entries []*Entry) ([][]byte, error) {
	total := 0
	for _, e := range entries {
		total += e.wireSize()
	}
	backing := make([]byte, total)
	out := make([][]byte, len(entries))
	off := 0
	for i, e := range entries {
		n := e.wireSize()
		b := backing[off : off+n : off+n]
		e.marshal(b)
		out[i] = b
		off += n
	}
	return out, nil
}

// DecodeBatch deserializes a burst of consensus payloads with one Entry
// allocation for the whole batch.
func DecodeBatch(payloads [][]byte) ([]*Entry, error) {
	ents := make([]Entry, len(payloads))
	out := make([]*Entry, len(payloads))
	for i, p := range payloads {
		if err := ents[i].unmarshal(p); err != nil {
			return nil, err
		}
		out[i] = &ents[i]
	}
	return out, nil
}

// Sequence is the ordered, shared queue of decided entries. The queue is
// a compacting head-indexed slice: consumption advances head instead of
// re-slicing, so the backing array is reused across bursts rather than
// growing behind a dead prefix.
type Sequence struct {
	mu      sync.Mutex
	entries []*Entry
	head    int // index of the first pending entry in entries
	// lastDrain is when the queue last transitioned to empty (or was
	// created); the bubbling component compares it against Wtimeout.
	lastDrain time.Time
	// stats
	enqueued      uint64
	bubbles       uint64
	clientCalls   uint64
	bubbleClocks  uint64
	consumedCalls uint64
	payloadBytes  uint64
	// specConsumed counts consumption acts against speculative entries:
	// bubble clock ticks, CONNECT/CLOSE pops, full SEND drains, and —
	// crucially — partial SEND byte copies, which advance no other counter.
	// The speculation layer snapshots it when a window opens and compares
	// after truncation: any change means speculative input reached the
	// server and the abort must escalate to a full rollback.
	specConsumed uint64
	// progressA mirrors bubbleClocks + consumedCalls: the sequence's
	// consumption position. Atomic so other lanes' merge polls read it
	// lock-free (see Progress).
	progressA atomic.Uint64

	// queueWait measures enqueue -> full consumption per client call (the
	// DMT-turn wait a request spends in the sequence). consumedHook fires
	// on full consumption of a client call, under s.mu — it must be cheap
	// and must not call back into the Sequence. Both are installed before
	// traffic and nil when observability is off.
	queueWait    *obs.Histogram
	consumedHook func(e *Entry)

	// flight journals consumption acts into this lane's flight-recorder
	// ring (one event per consumed entry; bubble clock ticks are coalesced
	// into a single event at exhaustion so the grind stays event-free).
	// All consumption happens while the caller holds the lane token, so
	// emission preserves the journal's single-writer discipline.
	// flightClock supplies the lane's logical clock for entry stamps
	// (lock-free read); nil when recording is off.
	flight      *flight.Journal
	flightClock func() uint64

	// wake holds at most one token, posted by every Enqueue: the admission
	// gate's token holder blocks on it while the sequence is empty, so a
	// committed entry wakes it directly. One slot suffices because only the
	// lane's token holder ever waits, and it re-checks Empty after every
	// wake-up (a token left over from an earlier enqueue is harmless).
	wake chan struct{}
}

// New creates an empty sequence.
func New() *Sequence {
	return &Sequence{
		lastDrain: time.Now(), //crane:detflow-ok drain-interval stat, never marshaled onto the wire
		wake:      make(chan struct{}, 1),
	}
}

// SetObs registers the sequence's instruments into reg: the queue-wait
// histogram (enqueue to full consumption per client call) and gauges over
// the running counters. Call before traffic; a nil reg is a no-op.
func (s *Sequence) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.queueWait = reg.Histogram("seq_queue_wait_seconds",
		"time a client call spends queued between consensus delivery and DMT consumption")
	s.mu.Unlock()
	reg.GaugeFunc("seq_pending", "entries currently queued", func() float64 {
		return float64(s.Len())
	})
	reg.GaugeFunc("seq_enqueued_total", "entries ever enqueued", func() float64 {
		return float64(s.Stats().Enqueued)
	})
	reg.GaugeFunc("seq_bubbles_total", "time bubbles enqueued", func() float64 {
		return float64(s.Stats().Bubbles)
	})
	reg.GaugeFunc("seq_bubble_clocks_total", "logical clocks consumed from bubbles", func() float64 {
		return float64(s.Stats().BubbleClocks)
	})
}

// SetFlight installs the lane's flight-recorder journal and a lock-free
// logical-clock source for event stamps. Install before traffic; a nil
// journal disables journaling.
func (s *Sequence) SetFlight(j *flight.Journal, clock func() uint64) {
	s.mu.Lock()
	s.flight = j
	s.flightClock = clock
	s.mu.Unlock()
}

// flightEmit journals one consumption act. Called under s.mu.
func (s *Sequence) flightEmit(kind uint8, a uint64) {
	clk := uint64(0)
	if s.flightClock != nil {
		clk = s.flightClock()
	}
	pos := s.progressA.Load()
	s.flight.Emit(kind, clk, pos, a, pos)
}

// SetConsumedHook installs fn, invoked once per fully consumed client call
// (CONNECT accepted, SEND drained to its last byte, CLOSE observed). fn runs
// under the sequence lock: it must be cheap and must not call back into the
// Sequence. Install before traffic.
func (s *Sequence) SetConsumedHook(fn func(e *Entry)) {
	s.mu.Lock()
	s.consumedHook = fn
	s.mu.Unlock()
}

// Enqueue appends a decided entry (called by the proxy in consensus order).
func (s *Sequence) Enqueue(e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.enqueuedAt = time.Now() //crane:detflow-ok queue-wait histogram stamp, not serialized by Entry.marshal
	s.entries = append(s.entries, e)
	s.enqueued++
	s.payloadBytes += uint64(len(e.Data)) + 16 // payload + entry framing
	if e.Kind == KindBubble {
		s.bubbles++
	} else {
		s.clientCalls++
	}
	s.Nudge()
}

// Wake returns the channel every Enqueue (and EnqueueSpec) posts to. A
// consumer that found the sequence empty blocks on it instead of polling,
// and must re-check Empty after each receive.
func (s *Sequence) Wake() <-chan struct{} { return s.wake }

// Nudge posts the wake without enqueueing, for a producer-side change the
// waiting consumer has to re-examine: the commit of an entry that was
// already enqueued speculatively.
func (s *Sequence) Nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// EnqueueSpec appends a speculative entry: the proposing replica's clone
// of an admitted socket call whose Accept round is still in flight.
// Speculative entries always form a contiguous queue suffix — the proxy
// only feeds while no committed entry is outstanding behind the window,
// ClearSpec promotes the suffix head in place, and TruncateSpec removes
// the whole suffix — so committed and speculative prefixes never
// interleave.
func (s *Sequence) EnqueueSpec(e *Entry) {
	e.Spec = true
	s.Enqueue(e)
}

// ClearSpec promotes a speculative entry to committed in place, stamping
// the consensus index its commit was assigned. Safe whether the entry is
// still queued, partially consumed, or already popped; the flag flip is
// under s.mu so the consumption hook observes a consistent value.
func (s *Sequence) ClearSpec(e *Entry, index uint64) {
	s.mu.Lock()
	e.Spec = false
	e.Index = index
	s.mu.Unlock()
}

// TruncateSpec removes the speculative suffix of the queue (aborted
// speculation), rolling the enqueue-side counters back so Stats reflect
// the committed stream only. Partially consumed speculative entries have
// already leaked input into the server; the caller detects that via
// SpecConsumed and escalates to a rollback. Returns how many entries were
// removed.
func (s *Sequence) TruncateSpec() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for s.pendingLocked() > 0 {
		e := s.entries[len(s.entries)-1]
		if !e.Spec {
			break
		}
		s.entries[len(s.entries)-1] = nil
		s.entries = s.entries[:len(s.entries)-1]
		s.enqueued--
		s.payloadBytes -= uint64(len(e.Data)) + 16
		if e.Kind == KindBubble {
			s.bubbles--
		} else {
			s.clientCalls--
		}
		n++
	}
	if n > 0 && s.pendingLocked() == 0 {
		s.entries = s.entries[:0]
		s.head = 0
		s.lastDrain = time.Now()
	}
	return n
}

// SpecConsumed returns the count of consumption acts against speculative
// entries (see the specConsumed field).
func (s *Sequence) SpecConsumed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.specConsumed
}

// Reset wipes the sequence back to its freshly-created state in place —
// entries, head, every counter, and the consumption position — keeping
// the installed instruments and hooks. The rollback path resets the lane
// sequences rather than replacing them so every pointer into them (socket
// layer, gate, hooks) stays valid; the fresh scheduler then replays the
// committed stream from consumption position zero.
func (s *Sequence) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.entries {
		s.entries[i] = nil
	}
	s.entries = s.entries[:0]
	s.head = 0
	s.lastDrain = time.Now()
	s.enqueued = 0
	s.bubbles = 0
	s.clientCalls = 0
	s.bubbleClocks = 0
	s.consumedCalls = 0
	s.payloadBytes = 0
	s.specConsumed = 0
	s.progressA.Store(0)
}

// pendingLocked returns the number of pending entries; headLocked the
// first pending entry. Called with s.mu held.
func (s *Sequence) pendingLocked() int { return len(s.entries) - s.head }

func (s *Sequence) headLocked() *Entry { return s.entries[s.head] }

// Empty reports whether no entry is pending.
func (s *Sequence) Empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked() == 0
}

// Len returns the number of pending entries.
func (s *Sequence) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked()
}

// Head returns a copy of the head entry without consuming it.
func (s *Sequence) Head() (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() == 0 {
		return Entry{}, false
	}
	return *s.headLocked(), true
}

// StarvesIn returns how long until the sequence has been continuously empty
// for d (the Wtimeout test that triggers a bubble request) if nothing is
// enqueued: 0 when it already has, what is left of d while it is empty, and
// the whole of d while an entry is pending (the count only starts at the
// drain). It is what a waiter arms its bubble-request deadline for.
func (s *Sequence) StarvesIn(d time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() > 0 {
		return d
	}
	return max(d-time.Since(s.lastDrain), 0)
}

// TickBubble consumes one logical clock from the head bubble, removing it
// when exhausted (Fig. 10 lines 6–7). It reports whether the head was a
// bubble.
func (s *Sequence) TickBubble() bool {
	_, ok := s.consumeBubble(1)
	return ok
}

// DrainBubble consumes every remaining clock of the head bubble in one act
// and removes it, returning how many clocks that was (0 when the head is not
// a bubble). The counters, the consumption position and the single EvBubble
// journal event end up exactly as after that many TickBubble calls.
func (s *Sequence) DrainBubble() uint64 {
	n, _ := s.consumeBubble(^uint64(0))
	return n
}

// consumeBubble takes up to limit clocks from the head bubble, popping it when
// none remain; ok is false when the head is not a bubble.
func (s *Sequence) consumeBubble(limit uint64) (n uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() == 0 || s.headLocked().Kind != KindBubble {
		return 0, false
	}
	e := s.headLocked()
	n = min(e.NClock, limit)
	if n > 0 {
		e.NClock -= n
		s.bubbleClocks += n
		s.progressA.Add(n)
		if e.Spec {
			s.specConsumed += n
		}
	}
	if e.NClock == 0 {
		s.popLocked()
		if s.flight != nil {
			s.flightEmit(flight.EvBubble, e.Req)
		}
	}
	return n, true
}

// PopConnect consumes a head CONNECT entry, returning its connection id and
// port. Used by the accept() wrapper.
func (s *Sequence) PopConnect() (connID uint64, port int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() == 0 || s.headLocked().Kind != KindConnect {
		return 0, 0, false
	}
	e := s.headLocked()
	s.popLocked()
	s.consumedCalls++
	s.progressA.Add(1)
	if e.Spec {
		s.specConsumed++
	}
	if s.flight != nil {
		s.flightEmit(flight.EvConnect, e.Conn)
	}
	return e.Conn, e.Port, true
}

// ReadData consumes up to max bytes from head SEND entries belonging to
// conn ("dequeues a number of matching send() calls according to the
// actual bytes received", Fig. 11). It stops at the first non-matching
// entry. If the head is a CLOSE for conn and no bytes were read, it
// consumes the CLOSE and reports EOF.
func (s *Sequence) ReadData(conn uint64, max int) (data []byte, eof bool) {
	buf := make([]byte, max)
	n, eof := s.ReadInto(conn, buf)
	if n == 0 {
		return nil, eof
	}
	return buf[:n], eof
}

// ReadInto is the scratch-free form of ReadData: it copies head SEND bytes
// for conn directly into b, returning the byte count. The socket wrappers
// recv() through this so the data path does not allocate per call.
func (s *Sequence) ReadInto(conn uint64, b []byte) (n int, eof bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n < len(b) && s.pendingLocked() > 0 {
		e := s.headLocked()
		if e.Kind != KindSend || e.Conn != conn {
			break
		}
		c := copy(b[n:], e.Data)
		n += c
		e.Data = e.Data[c:]
		if e.Spec && c > 0 {
			// A partial read is already contamination: the bytes reached
			// the server even though the entry stays queued.
			s.specConsumed++
		}
		if len(e.Data) != 0 {
			break
		}
		s.popLocked()
		s.consumedCalls++
		s.progressA.Add(1)
		if s.flight != nil {
			s.flightEmit(flight.EvSend, conn)
		}
	}
	if n == 0 && s.pendingLocked() > 0 {
		e := s.headLocked()
		if e.Kind == KindClose && e.Conn == conn {
			if e.Spec {
				s.specConsumed++
			}
			s.popLocked()
			s.consumedCalls++
			s.progressA.Add(1)
			if s.flight != nil {
				s.flightEmit(flight.EvClose, conn)
			}
			return 0, true
		}
	}
	return n, false
}

// PopIfConn discards a head SEND/CLOSE entry belonging to conn. Used to
// drain calls addressed to a connection the server has already closed,
// which no recv() will ever consume.
func (s *Sequence) PopIfConn(conn uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() == 0 {
		return false
	}
	e := s.headLocked()
	if (e.Kind != KindSend && e.Kind != KindClose) || e.Conn != conn {
		return false
	}
	if e.Spec {
		s.specConsumed++
	}
	s.popLocked()
	s.consumedCalls++
	s.progressA.Add(1)
	if s.flight != nil {
		if e.Kind == KindClose {
			s.flightEmit(flight.EvClose, conn)
		} else {
			s.flightEmit(flight.EvSend, conn)
		}
	}
	return true
}

// Progress returns the sequence's consumption position: total bubble
// clocks plus fully consumed client calls. Because both advance only as
// entries of the committed stream are consumed — never on enqueue, never
// on a partial SEND read — the value is a pure function of how far the
// consumer has worked through the decided prefix, which makes it
// replica-deterministic at every consumer operation. CRANE's gate reports
// it as the cross-lane merge stamp (dmt.LaneStampGate). Lock-free.
func (s *Sequence) Progress() uint64 { return s.progressA.Load() }

func (s *Sequence) popLocked() {
	e := s.entries[s.head]
	s.entries[s.head] = nil
	s.head++
	if s.head == len(s.entries) {
		// Drained: rewind onto the same backing array so the next burst
		// appends without growing.
		s.entries = s.entries[:0]
		s.head = 0
		s.lastDrain = time.Now()
	} else if s.head >= 32 && s.head*2 >= len(s.entries) {
		// Compact once the consumed prefix dominates, capping growth of
		// the dead prefix under a standing backlog.
		live := copy(s.entries, s.entries[s.head:])
		clearTail := s.entries[live:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		s.entries = s.entries[:live]
		s.head = 0
	}
	if e.Kind != KindBubble {
		if s.queueWait != nil && !e.enqueuedAt.IsZero() {
			s.queueWait.Since(e.enqueuedAt)
		}
		if s.consumedHook != nil {
			s.consumedHook(e)
		}
	}
}

// Stats is a snapshot of sequence counters; Table 1 is computed from it.
type Stats struct {
	Enqueued     uint64 // all entries ever enqueued
	Bubbles      uint64 // time bubbles enqueued
	ClientCalls  uint64 // client socket calls enqueued
	BubbleClocks uint64 // logical clocks consumed from bubbles
	Consumed     uint64 // client socket calls fully consumed
	Pending      int    // entries currently queued
	PayloadBytes uint64 // total consensus payload bytes enqueued
}

// Stats returns a snapshot of the counters.
func (s *Sequence) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Enqueued:     s.enqueued,
		Bubbles:      s.bubbles,
		ClientCalls:  s.clientCalls,
		BubbleClocks: s.bubbleClocks,
		Consumed:     s.consumedCalls,
		Pending:      s.pendingLocked(),
		PayloadBytes: s.payloadBytes,
	}
}

// BubbleRatio returns the fraction of consensus requests that were time
// bubbles (Table 1's rightmost column), or 0 if nothing was enqueued.
func (st Stats) BubbleRatio() float64 {
	if st.Enqueued == 0 {
		return 0
	}
	return float64(st.Bubbles) / float64(st.Enqueued)
}

package crane

import (
	"bytes"
	"sync"

	"crane/internal/obs"
	"crane/internal/obs/flight"
	"crane/internal/seq"
)

// speculator implements ISSUE 7: the proposing replica starts executing a
// burst while its Accept round is still in flight, instead of waiting for
// the Paxos commit. The design follows "Optimistic Parallel State-Machine
// Replication": execute optimistically in proposal order, hold every
// externally visible effect, and treat the rare mismatch as what CRANE
// already handles — a replica failure.
//
// Flow, in the overwhelmingly common case (the leader proposes exactly
// what it admitted, and no view change intervenes):
//
//  1. feed: just before ProposeBatch, the proxy's submit loop hands the
//     burst here. Every entry — time bubbles included — is cloned into
//     its lane's sequence tagged Spec; the DMT gate and socket wrappers
//     consume it like any committed entry, so execution begins
//     immediately. Because Paxos commits in proposal order and feed
//     mirrors proposal order (refusing to run while any unfed proposal
//     is in flight), the local queues always equal commit order — the
//     invariant cross-replica schedule determinism hangs on. The window
//     (pending FIFO) opens.
//  2. emit: server outputs produced while the window is open are held in
//     the speculation buffer instead of reaching the output log, the
//     tracer, or the client.
//  3. onCommitted: commits arrive in proposal order and match the pending
//     FIFO head one by one; each match promotes its clone in place
//     (seq.ClearSpec). When the window drains, the buffered outputs flush
//     in order — log, trace, forward.
//
// On a mismatch (which, with a single well-behaved primary, only a view
// change can produce), a failed ProposeBatch, or primary loss with the
// window open:
//
//   - If no speculative entry was consumed yet (SpecConsumed unchanged
//     since the window opened), the clones are truncated from the lane
//     queues and nothing else happened — a "light abort".
//   - Otherwise speculative input reached the server and its state can no
//     longer be trusted: the abort is contaminated and the replica
//     fail-stops. The buffered effects are discarded, so no byte of the
//     aborted execution reaches a client, the output log or the WAL (which
//     holds committed entries only). The replica then comes back the way
//     any failed replica does: Cluster.RestartReplica replays its WAL
//     (§2.1), Cluster.RestoreReplica a backup's checkpoint (§5.2).
//
// A speculating replica has exactly one Paxos group (Config.validate rejects
// Speculation with more): its commit index is nodes[0]'s, and commit order is
// proposal order.
//
// Lock order: sp.mu is taken under the merge's lock (onCommitted runs in
// its emit callback) and never calls back into the merge; it may be taken
// before seq.mu, out.mu, ro.mu, px.mu and the paxos node's mu — never after
// any of them. The seq consumption hook
// (under seq.mu) must therefore never call into the speculator; it only
// reads Entry.Spec, which seq mutates under its own lock.
type speculator struct {
	r *Replica

	mu sync.Mutex
	// pending is the open window: fed entries whose commits are still in
	// flight, in proposal order. head tracks the FIFO position so
	// confirmation is O(1) without reslicing churn.
	pending []specRec
	phead   int
	// buf holds outputs produced while the window is open.
	buf []specOut
	// specBase snapshots each lane's SpecConsumed when the window opens;
	// abort compares after truncation to detect consumed speculation.
	specBase []uint64
	// failed is set by a contaminated abort: the replica is going down, so
	// feeds are refused, commits swallowed, and emits and closes dropped
	// until the teardown has killed the server.
	failed bool
	// pendingCalls counts the non-bubble entries of the open window —
	// "real work is executing ahead", the signal that makes speculative
	// time grants (see feed's bubble re-arm) worth their consensus cost.
	pendingCalls int
	// unfed counts entries this replica proposed WITHOUT feeding them
	// (feed declined: view flapping, a window at the cap). Their commit-time
	// enqueues are still in flight, so feeding a later burst would slot its
	// clones ahead of them in the lane queues — an order inversion against
	// every backup. Feeds are refused until the count drains to zero; it is
	// reset whenever a propose fails or a window aborts (the in-flight
	// entries are then lost, or the replica fail-stopped anyway).
	unfed int

	windows     uint64
	hits        uint64
	aborts      uint64
	lightAborts uint64
	rollbacks   uint64

	cWindows     *obs.Counter
	cHits        *obs.Counter
	cAborts      *obs.Counter
	cLightAborts *obs.Counter
	cOutBuf      *obs.Counter
}

// maxSpecWindow caps how many proposed-but-uncommitted entries may be
// executing ahead. Healthy windows hold a handful of entries; the cap
// only binds when commits stop arriving (a partitioned primary keeps
// proposing into its local log), bounding both the runahead an abort
// discards and the window bookkeeping itself.
const maxSpecWindow = 256

// specRec is one fed entry awaiting its commit. A bubble fed on a
// multi-lane replica has one clone per lane (mirroring onDeliver's
// commit-time fan-out); everything else has exactly one.
type specRec struct {
	clones []*seq.Entry // the speculative queue entries (headers mutated by consumption)
	orig   seq.Entry    // pristine copy for commit matching
}

// specOut is one buffered externally visible effect: a server output, or
// (close) the server-side connection close that must not reach the
// client's socket before the outputs produced ahead of it.
type specOut struct {
	lane  int
	conn  uint64
	data  []byte
	close bool
}

// SpecStats is a snapshot of the speculation counters (Replica.SpecStats).
type SpecStats struct {
	Windows     uint64 // speculation windows opened
	Hits        uint64 // fed entries confirmed by a matching commit
	Aborts      uint64 // windows aborted (mismatch, propose failure, primary loss)
	LightAborts uint64 // aborts that truncated cleanly (no speculative input consumed)
	Rollbacks   uint64 // contaminated aborts, each fail-stopped the replica
	Pending     int    // entries currently awaiting commit
	Buffered    int    // externally visible effects currently held back
}

func newSpeculator(r *Replica) *speculator {
	return &speculator{
		r:        r,
		specBase: make([]uint64, r.lanes),
		cWindows: r.ro.reg.Counter("spec_windows_total",
			"speculation windows opened (bursts executed ahead of commit)"),
		cHits: r.ro.reg.Counter("spec_hits_total",
			"speculatively executed entries confirmed by a matching commit"),
		cAborts: r.ro.reg.Counter("spec_aborts_total",
			"speculation windows aborted (order mismatch, propose failure, primary loss)"),
		cLightAborts: r.ro.reg.Counter("spec_light_aborts_total",
			"aborts resolved by truncation alone (no speculative input was consumed)"),
		cOutBuf: r.ro.reg.Counter("spec_outputs_buffered_total",
			"server outputs held in the speculation buffer"),
	}
}

// feed is called by the proxy's submit loop immediately before
// ProposeBatch, with the burst it is about to propose. On the primary it
// clones every entry of the burst — bubbles included — into the lane
// sequences as a speculative prefix, so the DMT starts executing while the
// Accept round is in flight.
//
// Bubbles MUST be speculated along with client calls, not skipped: the
// local queues must mirror commit order, and Paxos commits in proposal
// order. Skipping a bubble would enqueue it at commit time, AFTER the
// clones of any burst fed while its commit was in flight — an order
// inversion relative to every backup, which shows up as a cross-replica
// ScheduleSum divergence. (Feeding bubbles also means the primary's
// logical clock ticks ahead of commit, which is exactly the speculation
// the layer exists for.) For the same reason feed is all-or-nothing per
// burst and refuses to run while any unfed proposal is still in flight.
// Returns whether the burst was fed.
func (sp *speculator) feed(ents []*seq.Entry) bool {
	if sp.r.killed() || !sp.r.IsPrimary() {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	// Feed is all-or-nothing per burst, so the cap is checked against the
	// whole burst: admitting a burst that would overshoot maxSpecWindow is
	// refused outright rather than letting the window exceed its bound.
	if sp.failed || sp.unfed > 0 ||
		sp.pendingLen()+len(ents) > maxSpecWindow {
		return false
	}
	for _, e := range ents {
		if sp.pendingLen() == 0 {
			// Window opens: snapshot each lane's speculative-consumption
			// position so abort can tell a light abort from a contaminated one.
			for i, lsq := range sp.r.sqs {
				sp.specBase[i] = lsq.SpecConsumed()
			}
			sp.windows++
			sp.cWindows.Inc()
			sp.r.flt.Control().Note(flight.EvSpecOpen, sp.r.logicalClock(),
				uint64(len(ents)), 0, "")
		}
		rec := specRec{orig: *e}
		lo, hi := sp.r.lanesOf(e)
		for lane := lo; lane < hi; lane++ {
			clone := new(seq.Entry)
			*clone = *e
			rec.clones = append(rec.clones, clone)
			sp.r.sqs[lane].EnqueueSpec(clone)
		}
		sp.pending = append(sp.pending, rec)
		if e.Kind != seq.KindBubble {
			sp.pendingCalls++
		} else if sp.pendingCalls > 0 || sp.r.openConns.Load() > 0 {
			// Speculative time: the bubble is already in the queue, so the
			// starvation test (StarvesIn) — not the commit round-trip — can
			// pace the next grant. Without this, execution that needs N
			// bubbles of clock pays N commit RTTs even though every entry
			// it consumes is speculative; with it, the whole clock demand
			// of the burst overlaps the in-flight Accept rounds. Gated on
			// live work: an idle primary keeps the commit-paced cadence,
			// so it stays quiescent (checkpoints) and a partitioned one
			// cannot spin the log full of bubbles.
			sp.r.bubblePending.Store(false)
		}
	}
	return len(ents) > 0
}

// unfedProposed records entries that were proposed without being fed (see
// the unfed field). Called by the submit loop when ProposeBatch succeeded
// for a burst feed declined.
func (sp *speculator) unfedProposed(n int) {
	sp.mu.Lock()
	sp.unfed += n
	sp.mu.Unlock()
}

// proposeFailed aborts the whole window after a failed ProposeBatch. A
// propose failure means lost primaryship: every pending burst (not just
// the failed one) is doomed, because the new primary's log will not
// contain them — and the same goes for any unfed proposals still counted
// as in flight, so that counter resets here too (if one does survive the
// view change and commits later, it either decrements at the floor or
// trips a mismatch abort, both of which are safe).
func (sp *speculator) proposeFailed() {
	sp.mu.Lock()
	sp.unfed = 0
	if sp.pendingLen() > 0 {
		sp.abortLocked()
	}
	sp.mu.Unlock()
}

// onCommitted receives every committed entry, after the commit is traced
// but before the normal enqueue. It returns true when the entry is fully
// handled here (confirmed a speculative clone already in a queue, or
// swallowed by a fail-stopped replica) — the caller must then NOT enqueue
// it — and false when the entry should be enqueued normally.
func (sp *speculator) onCommitted(ent *seq.Entry) bool {
	sp.mu.Lock()
	if sp.failed {
		// The replica is going down; its restart replays this entry from
		// the WAL.
		sp.mu.Unlock()
		return true
	}
	if sp.pendingLen() == 0 {
		// Not ours (or an unfed burst of ours arriving): the caller
		// enqueues it normally, and one fewer unfed proposal is in flight.
		if sp.unfed > 0 {
			sp.unfed--
		}
		sp.mu.Unlock()
		return false
	}
	rec := sp.pending[sp.phead]
	if !specMatch(&rec.orig, ent) {
		// Committed order diverged from speculated order (a view change
		// interleaved another primary's entries).
		stopped := sp.abortLocked()
		sp.mu.Unlock()
		return stopped
	}
	sp.popPendingLocked()
	lo, _ := sp.r.lanesOf(ent)
	for i, clone := range rec.clones {
		sp.r.sqs[lo+i].ClearSpec(clone, ent.Index)
	}
	sp.hits++
	sp.cHits.Inc()
	sp.r.ro.recordConfirmed(ent.Req, ent.Conn, ent.Index)
	if sp.pendingLen() == 0 {
		sp.r.flt.Control().Note(flight.EvSpecConfirm, sp.r.logicalClock(),
			sp.hits, 0, "")
		sp.flushLocked()
	}
	sp.mu.Unlock()
	return true
}

// primaryLost aborts an open window when this replica stops being the
// primary (its uncommitted proposals will never commit under the new
// view). Called from the proxy teardown path and safe to call anytime.
func (sp *speculator) primaryLost() {
	sp.mu.Lock()
	if sp.pendingLen() > 0 {
		sp.abortLocked()
	}
	sp.mu.Unlock()
}

// emit routes one server output. It returns true when the output was
// handled here (buffered while the window is open, or dropped by a
// fail-stopped replica) and false when the caller should record and
// forward it directly — the no-speculation fast path.
func (sp *speculator) emit(conn uint64, data []byte) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.failed {
		// A thread of the contaminated execution, still running until the
		// teardown kills it.
		return true
	}
	if sp.pendingLen() > 0 {
		d := make([]byte, len(data))
		copy(d, data)
		sp.buf = append(sp.buf, specOut{lane: sp.r.laneForConn(conn), conn: conn, data: d})
		sp.cOutBuf.Inc()
		return true
	}
	return false
}

// closeConn routes a server-side connection close. Inside an open window
// the close is buffered behind the outputs produced before it — otherwise
// the client's socket would shut before its speculated response flushes.
// Returns true when handled here.
func (sp *speculator) closeConn(conn uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.failed {
		// A thread of the contaminated execution; the committed world may
		// never have accepted the connection.
		return true
	}
	if sp.pendingLen() > 0 {
		sp.buf = append(sp.buf, specOut{conn: conn, close: true})
		return true
	}
	return false
}

// flushLocked releases the buffered outputs after the window's last
// commit confirmed: record, trace, and (still primary) forward, in
// production order. simnet writes never block, so flushing synchronously
// under sp.mu is safe and keeps output order atomic with the window
// close.
func (sp *speculator) flushLocked() {
	if len(sp.buf) == 0 {
		return
	}
	primary := sp.r.IsPrimary()
	for _, o := range sp.buf {
		if o.close {
			sp.r.px.closeConn(o.conn)
			continue
		}
		sp.r.out.Record(o.conn, o.data)                              //crane:specleak-ok flush path: the window's commits all confirmed, these effects are committed
		sp.r.ro.recordOutput(o.conn, sp.r.logicalClock(), o.lane, 0) // speculation implies one group
		if primary {
			sp.r.px.forward(o.conn, o.data)
		}
	}
	sp.buf = sp.buf[:0]
}

// abortLocked tears the window down: pending clones are truncated from
// the lane queues. If no speculative entry was consumed, the buffer holds
// committed outputs only and flushes (a light abort). Otherwise truncation
// cannot undo the consumption: the abort is contaminated, the buffer is
// discarded — no client-visible byte of the aborted speculation survives —
// and the replica fail-stops on its own goroutine (stop waits for the
// Paxos loop to exit, and this may run on it). Reports whether the replica
// fail-stopped.
//
// Truncation happens BEFORE the consumption check: between a check and a
// truncate, a scheduled thread could consume a speculative head. After
// TruncateSpec the suffix is gone, so a stable SpecConsumed reading
// really means nothing speculative ever reached the server.
func (sp *speculator) abortLocked() (stopped bool) {
	sp.aborts++
	sp.cAborts.Inc()
	aborted := uint64(sp.pendingLen())
	sp.unfed = 0
	for i := sp.phead; i < len(sp.pending); i++ {
		sp.r.ro.dropSpec(sp.pending[i].orig.Req)
	}
	sp.pending = sp.pending[:0]
	sp.phead = 0
	sp.pendingCalls = 0
	for _, lsq := range sp.r.sqs {
		lsq.TruncateSpec()
	}
	clean := true
	for i, lsq := range sp.r.sqs {
		if lsq.SpecConsumed() != sp.specBase[i] {
			clean = false
			break
		}
	}
	if clean {
		// Nothing speculative reached the server, so everything in the
		// buffer was produced by committed execution (outputs of earlier,
		// already-confirmed requests emitted while this window was open).
		// Nothing will regenerate them — flush, don't discard.
		sp.lightAborts++
		sp.cLightAborts.Inc()
		sp.r.flt.Control().Note(flight.EvSpecAbort, sp.r.logicalClock(), aborted, 0, "")
		sp.flushLocked()
		return false
	}
	// Contaminated execution: the buffer may mix committed and speculative
	// effects, but the restarted replica's replay regenerates every
	// committed one, so the whole buffer is safe to drop.
	sp.buf = sp.buf[:0]
	sp.failed = true
	sp.rollbacks++
	sp.r.flt.Control().Note(flight.EvSpecAbort, sp.r.logicalClock(), aborted, 1, "")
	go sp.r.stop()
	return true
}

// active reports whether speculation state is in flight — an open window
// or a fail-stop. Quiescence (and therefore checkpointing) excludes both.
func (sp *speculator) active() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pendingLen() > 0 || sp.failed
}

// stats snapshots the counters.
func (sp *speculator) stats() SpecStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpecStats{
		Windows:     sp.windows,
		Hits:        sp.hits,
		Aborts:      sp.aborts,
		LightAborts: sp.lightAborts,
		Rollbacks:   sp.rollbacks,
		Pending:     sp.pendingLen(),
		Buffered:    len(sp.buf),
	}
}

func (sp *speculator) pendingLen() int { return len(sp.pending) - sp.phead }

func (sp *speculator) popPendingLocked() {
	if sp.pending[sp.phead].orig.Kind != seq.KindBubble {
		sp.pendingCalls--
	}
	sp.pending[sp.phead] = specRec{}
	sp.phead++
	if sp.phead == len(sp.pending) {
		sp.pending = sp.pending[:0]
		sp.phead = 0
	}
}

// specMatch reports whether a committed entry is the speculated one.
// With a single well-behaved primary this always holds; request ids are
// globally unique, the rest is belt and suspenders.
func specMatch(a, b *seq.Entry) bool {
	return a.Req == b.Req && a.Kind == b.Kind && a.Conn == b.Conn &&
		a.Port == b.Port && a.NClock == b.NClock && bytes.Equal(a.Data, b.Data)
}

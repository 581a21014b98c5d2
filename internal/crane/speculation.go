package crane

import (
	"bytes"
	"sync"
	"time"

	"crane/internal/checkpoint"
	"crane/internal/obs"
	"crane/internal/obs/flight"
	"crane/internal/papi"
	"crane/internal/seq"
)

// speculator implements ISSUE 7: the proposing replica starts executing a
// burst while its Accept round is still in flight, instead of waiting for
// the Paxos commit. The design follows "Optimistic Parallel State-Machine
// Replication": execute optimistically in proposal order, hold every
// externally visible effect, and repair on the rare mismatch.
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
//     queues and nothing else happened — a "light abort", no rollback.
//   - Otherwise speculative input reached the server: the replica's
//     execution state is rebuilt at the speculation boundary — the last
//     checkpoint.Checkpointer boundary snapshot when one exists, the
//     pristine base image otherwise — and the committed entry log since
//     that boundary is replayed through a fresh deterministic scheduler.
//     Replay reproduces the pre-rollback schedule bit for bit (it is the
//     same committed input stream), so the per-lane outputs already in
//     the output log are suppressed by count and the replica converges to
//     exactly the state and fingerprints of a replica that never
//     speculated.
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
	// repairing is true while a rollback goroutine owns the execution
	// state; feeds are refused and commits are swallowed into the log.
	repairing bool
	// pendingCalls counts the non-bubble entries of the open window —
	// "real work is executing ahead", the signal that makes speculative
	// time grants (see feed's bubble re-arm) worth their consensus cost.
	pendingCalls int
	// unfed counts entries this replica proposed WITHOUT feeding them
	// (feed declined: view flapping, repair in progress). Their commit-time
	// enqueues are still in flight, so feeding a later burst would slot its
	// clones ahead of them in the lane queues — an order inversion against
	// every backup. Feeds are refused until the count drains to zero; it is
	// reset whenever a propose fails or a window aborts (the in-flight
	// entries are then lost or about to be repaired anyway).
	unfed int

	// log holds value copies of every committed entry since the boundary,
	// in commit order — the replay source. Data aliases the paxos payload
	// (never mutated); the queue-side header mutations (NClock ticks,
	// partial-read reslicing) happen on separate clones.
	log      []seq.Entry
	boundary *checkpoint.Checkpoint
	// epoch counts boundary restores (dmt.Stats.Epoch).
	epoch uint64
	// boundaryEvery is the log length beyond which a quiescent moment
	// triggers an opportunistic boundary capture (TryCapture) to bound
	// replay work; capturing gates one attempt at a time.
	boundaryEvery int
	capturing     bool
	cp            *checkpoint.Checkpointer
	// logCap is the hard bound on the replay log. A server that never has
	// a quiescent moment (long-lived connections) never lets a boundary
	// capture succeed, so the log would otherwise grow for the replica's
	// lifetime. Past the cap — with no window open, so no rollback can
	// ever need the entries — speculation is disabled, the log is dropped,
	// and feeding stays off until a fresh boundary capture re-establishes
	// a restore point (disabled turns every commit into a capture
	// opportunity, so the next quiet moment re-arms).
	logCap   int
	disabled bool
	logTrips uint64

	// Per-lane replay bookkeeping. recorded counts outputs this replica
	// has ever recorded per lane (monotonic across rollbacks); replayed
	// counts outputs emitted since the last rebuild; suppress is the count
	// of already-recorded outputs the replay will regenerate. During
	// replay, a lane's first suppress outputs are — by schedule
	// determinism — exactly the ones already recorded, so they are dropped
	// instead of re-recorded. recordedAtBoundary snapshots recorded when a
	// boundary is installed: a boundary restore replays only the entries
	// after the boundary, so it regenerates recorded-recordedAtBoundary
	// outputs per lane, while a genesis replay regenerates all recorded.
	recorded           []uint64
	replayed           []uint64
	suppress           []uint64
	recordedAtBoundary []uint64

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
	cLogTrips    *obs.Counter
	gLogLen      *obs.Gauge
	rollbackH    *obs.Histogram
}

// maxSpecWindow caps how many proposed-but-uncommitted entries may be
// executing ahead. Healthy windows hold a handful of entries; the cap
// only binds when commits stop arriving (a partitioned primary keeps
// proposing into its local log), bounding both the runahead the rollback
// must undo and the window bookkeeping itself.
const maxSpecWindow = 256

// defaultSpecLogCap is the default replay-log hard bound (speculator.logCap).
const defaultSpecLogCap = 1 << 16

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
	LightAborts uint64 // aborts that truncated cleanly without a rollback
	Rollbacks   uint64 // full checkpoint-rollback repairs
	LogTrips    uint64 // replay-log cap trips (speculation disabled until re-armed)
	Pending     int    // entries currently awaiting commit
	Buffered    int    // externally visible effects currently held back
	LogLen      int    // committed entries currently in the replay log
	Disabled    bool   // feeding refused until a boundary capture re-arms
}

func newSpeculator(r *Replica) *speculator {
	sp := &speculator{
		r:                  r,
		specBase:           make([]uint64, r.lanes),
		recorded:           make([]uint64, r.lanes),
		replayed:           make([]uint64, r.lanes),
		suppress:           make([]uint64, r.lanes),
		recordedAtBoundary: make([]uint64, r.lanes),
		boundaryEvery:      4096,
		logCap:             defaultSpecLogCap,
		cp:                 checkpoint.New(checkpoint.Options{}),
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
		cLogTrips: r.ro.reg.Counter("spec_log_cap_trips_total",
			"replay-log cap trips (log dropped, speculation disabled until re-armed)"),
		gLogLen: r.ro.reg.Gauge("spec_log_entries",
			"committed entries held in the speculation replay log"),
		rollbackH: r.ro.reg.Histogram("spec_rollback_seconds",
			"checkpoint-rollback repair latency (kill, restore, replay start)"),
	}
	return sp
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
	// refused outright rather than letting the window exceed the bound the
	// rollback bookkeeping is sized for.
	if sp.repairing || sp.disabled || sp.unfed > 0 ||
		sp.pendingLen()+len(ents) > maxSpecWindow {
		return false
	}
	for _, e := range ents {
		if sp.pendingLen() == 0 {
			// Window opens: snapshot each lane's speculative-consumption
			// position so abort can tell truncation-only from rollback.
			for i, lsq := range sp.r.sqs {
				sp.specBase[i] = lsq.SpecConsumed()
			}
			sp.windows++
			sp.cWindows.Inc()
			sp.r.flt.Control().Note(flight.EvSpecOpen, sp.r.logicalClock(),
				uint64(len(ents)), 0, "")
		}
		rec := specRec{orig: *e}
		if e.Kind == seq.KindBubble && sp.r.lanes > 1 {
			// Mirror onDeliver's commit-time fan-out: one clone per lane
			// (TickBubble mutates NClock in place).
			for _, lsq := range sp.r.sqs {
				clone := new(seq.Entry)
				*clone = *e
				rec.clones = append(rec.clones, clone)
				lsq.EnqueueSpec(clone)
			}
		} else {
			clone := new(seq.Entry)
			*clone = *e
			rec.clones = []*seq.Entry{clone}
			sp.r.sqs[sp.r.laneForConn(e.Conn)].EnqueueSpec(clone)
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
			// so it stays quiescent (checkpoints, boundary captures) and
			// a partitioned one cannot spin the log full of bubbles.
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
// trips a mismatch abort, both of which repair correctly).
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
// swallowed for replay during a repair) — the caller must then NOT
// enqueue it — and false when the entry should be enqueued normally.
func (sp *speculator) onCommitted(ent *seq.Entry) bool {
	sp.mu.Lock()
	// Every committed entry joins the replay log in commit order,
	// regardless of what happens to it below.
	sp.log = append(sp.log, *ent)
	sp.gLogLen.Set(int64(len(sp.log)))
	sp.boundOrCaptureLocked()
	if sp.repairing {
		// The rollback goroutine owns execution state; it will replay
		// this entry from the log.
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
		full := sp.abortLocked()
		sp.mu.Unlock()
		return full
	}
	sp.popPendingLocked()
	if rec.orig.Kind == seq.KindBubble && sp.r.lanes > 1 {
		for i, clone := range rec.clones {
			sp.r.sqs[i].ClearSpec(clone, ent.Index)
		}
	} else {
		sp.r.sqs[sp.r.laneForConn(ent.Conn)].ClearSpec(rec.clones[0], ent.Index)
	}
	sp.hits++
	sp.cHits.Inc()
	sp.r.ro.recordConfirmed(ent.Req, ent.Conn, ent.Index)
	if sp.pendingLen() == 0 {
		sp.r.flt.Control().Note(flight.EvSpecConfirm, sp.r.logicalClock(),
			sp.hits, 0, "")
		sp.flushLocked()
		// On a primary under continuous fed traffic every commit arrives
		// with a window open, so the top-of-function check never sees
		// pendingLen()==0 — the window drain is where the log bound and
		// the capture opportunity must be re-checked.
		sp.boundOrCaptureLocked()
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
// handled here (buffered while the window is open, suppressed during
// replay, or discarded during repair) and false when the caller should
// record and forward it directly — the no-speculation fast path.
func (sp *speculator) emit(conn uint64, data []byte) bool {
	lane := sp.r.laneForConn(conn)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.repairing {
		// A pre-rollback thread unwinding through its last Send; its
		// output belongs to the aborted execution.
		return true
	}
	if sp.replayed[lane] < sp.suppress[lane] {
		// Replay of an output recorded before the rollback: the lane's
		// deterministic schedule re-emits its outputs in the original
		// order, so the first suppress[lane] are exactly the recorded ones.
		sp.replayed[lane]++
		return true
	}
	if sp.pendingLen() > 0 {
		d := make([]byte, len(data))
		copy(d, data)
		sp.buf = append(sp.buf, specOut{lane: lane, conn: conn, data: d})
		sp.cOutBuf.Inc()
		return true
	}
	sp.recorded[lane]++
	sp.replayed[lane]++
	return false
}

// closeConn routes a server-side connection close. Inside an open window
// the close is buffered behind the outputs produced before it — otherwise
// the client's socket would shut before its speculated response flushes.
// Returns true when handled here. Replayed closes need no suppression
// counting: closing a connection the proxy already forgot is a no-op.
func (sp *speculator) closeConn(conn uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.repairing {
		// A dying pre-rollback thread; its close belongs to the aborted
		// execution (the committed world never accepted the connection).
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
		n, fp := sp.r.out.Record(o.conn, o.data) //crane:specleak-ok flush path: the window's commits all confirmed, these effects are committed
		sp.r.flt.NoteOutput(uint64(n), fp)
		sp.r.ro.recordOutput(o.conn, sp.r.logicalClock(), o.lane, 0) // speculation implies one group
		sp.recorded[o.lane]++
		sp.replayed[o.lane]++
		if primary {
			sp.r.px.forward(o.conn, o.data)
		}
	}
	sp.buf = sp.buf[:0]
}

// abortLocked tears the window down: pending clones are truncated from
// the lane queues and the buffered outputs are discarded — no
// client-visible byte of an aborted speculation survives. If any
// speculative entry was already consumed, truncation cannot undo it and
// the abort escalates to a full rollback on its own goroutine (never on
// the paxos delivery loop). Reports whether a rollback was started.
//
// Truncation happens BEFORE the consumption check: between a check and a
// truncate, a scheduled thread could consume a speculative head. After
// TruncateSpec the suffix is gone, so a stable SpecConsumed reading
// really means nothing speculative ever reached the server.
func (sp *speculator) abortLocked() (full bool) {
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
		// There is no replay to regenerate them — flush, don't discard.
		sp.lightAborts++
		sp.cLightAborts.Inc()
		sp.r.flt.Control().Note(flight.EvSpecAbort, sp.r.logicalClock(), aborted, 0, "")
		sp.flushLocked()
		return false
	}
	// Contaminated execution: the buffer may mix committed and speculative
	// effects, but the rollback's replay regenerates every committed one,
	// so the whole buffer is safe to drop.
	sp.buf = sp.buf[:0]
	sp.repairing = true
	sp.rollbacks++
	sp.r.flt.Control().Note(flight.EvSpecAbort, sp.r.logicalClock(), aborted, 1, "")
	go sp.rollback()
	return true
}

// rollback rebuilds the replica's execution state at the speculation
// boundary and replays the committed log. It runs on its own goroutine:
// killing the old scheduler blocks until every application thread
// unwinds, which must never stall the paxos delivery loop. For the same
// reason the expensive rebuild work (filesystem restore, instance
// construction and restore, scheduler wiring) runs outside sp.mu —
// onCommitted takes sp.mu on the delivery path, and repairing=true
// already fences feeds, commits, and emits — with the lock retaken only
// to swap the rebuilt state in.
func (sp *speculator) rollback() {
	t0 := time.Now()
	r := sp.r
	old := r.proc()
	// Kill also unwinds a token holder blocked in the gate's
	// empty-sequence wait (the queues were just truncated): the wait
	// selects on the scheduler's kill channel.
	old.Kill()
	old.Wait()
	// Every pre-rollback thread has exited: the execution state is
	// exclusively ours until the new scheduler starts.
	sp.mu.Lock()
	if r.killed() {
		// The replica was stopped while we unwound; leave repairing set —
		// nothing may execute again.
		sp.mu.Unlock()
		return
	}
	sp.buf = sp.buf[:0]
	// The boundary cannot change while repairing: captureBoundary refuses
	// to install one mid-repair, and nothing else writes it.
	boundary := sp.boundary
	sp.mu.Unlock()

	// Rebuild the filesystem and instance at the boundary, unlocked.
	var fs = r.baseSnap.NewFS()
	var from uint64
	fromBoundary := false
	if boundary != nil {
		restored, _, err := sp.cp.RestoreFS(boundary, r.baseSnap)
		if err == nil {
			fs = restored
			from = boundary.Index
			fromBoundary = true
		}
		// A broken boundary falls back to genesis replay: slower, never
		// wrong.
	}
	inst := r.prog.New(fs)
	if fromBoundary {
		if err := inst.Restore(boundary.Process); err != nil {
			fromBoundary = false
			from = 0
			fs = r.baseSnap.NewFS()
			inst = r.prog.New(fs)
		}
	}
	// Fresh scheduler, wired exactly like start().
	proc := papi.NewParrotProc(r.net, r.host, fs)
	proc.SetLanes(r.lanes)
	proc.SetSocketLayer(&dmtSockets{r: r})
	proc.Sched.SetGate(newGate(r, r.mode == ModeCrane))
	proc.Sched.SetObs(r.ro.reg)

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if r.killed() {
		// Stopped during the rebuild; the replacement never starts.
		return
	}
	if !fromBoundary {
		sp.boundary = nil
	}
	// Replay suppression: a boundary restore replays only the entries
	// after the boundary, so it regenerates exactly the outputs recorded
	// since the boundary was installed; a genesis replay regenerates every
	// output ever recorded.
	for i := range sp.suppress {
		if fromBoundary {
			sp.suppress[i] = sp.recorded[i] - sp.recordedAtBoundary[i]
		} else {
			sp.suppress[i] = sp.recorded[i]
		}
		sp.replayed[i] = 0
		sp.specBase[i] = 0
	}
	if fromBoundary {
		sp.epoch++
		proc.Sched.SetEpoch(sp.epoch)
	}
	// Reset connection and sequence state in place (pointers into the
	// lane sequences stay valid for the gate, hooks, and socket layer).
	r.openConns.Store(0)
	r.closedMu.Lock()
	r.closedConns = make(map[uint64]bool)
	r.closedMu.Unlock()
	// Resetting the lanes loses nothing: speculation implies one Paxos
	// group (Config.validate), whose merge parks nothing, so every
	// discarded entry is in the speculation log replayed below.
	for _, lsq := range r.sqs {
		lsq.Reset()
	}
	r.execMu.Lock()
	r.fs = fs
	r.inst = inst
	r.execMu.Unlock()
	// Re-base the flight journals under a new epoch and wire them to the
	// rebuilt scheduler: the replayed re-recording starts from a fresh
	// chain basis, and live-audit samples stamped with the old epoch stop
	// being comparable (the output-fingerprint audit, which covers only
	// committed effects, keeps watching the run).
	newEpoch := r.flt.AdvanceEpoch()
	r.wireFlight(proc)
	r.flt.Control().Note(flight.EvSpecRollback, 0, uint64(newEpoch), from, "")
	r.pprocA.Store(proc)
	// Re-enqueue the committed tail in commit order, exactly as onDeliver
	// would have: bubbles cloned per lane, client calls routed by
	// connection.
	for i := range sp.log {
		ent := &sp.log[i]
		if ent.Index <= from {
			continue
		}
		if ent.Kind == seq.KindBubble && r.lanes > 1 {
			for _, lsq := range r.sqs {
				c := new(seq.Entry)
				*c = *ent
				lsq.Enqueue(c)
			}
		} else {
			c := new(seq.Entry)
			*c = *ent
			r.sqs[r.laneForConn(ent.Conn)].Enqueue(c)
		}
	}
	proc.Start(inst)
	sp.repairing = false
	sp.rollbackH.Since(t0)
}

// boundOrCaptureLocked bounds the replay log and opportunistically
// advances the rollback boundary; called with sp.mu held whenever the log
// may have grown or the window may have drained. It is a no-op while a
// window is open or a repair is running — the log is then (or may become)
// the replay source and must not be touched.
//
// Past logCap the log trips: a server that never has a quiescent moment
// (long-lived connections) never lets a boundary capture trim the log, so
// it would otherwise grow for the replica's lifetime. With no window open
// no rollback can ever need the entries — the log is dropped, feeding is
// disabled, and the boundary (restorable only together with the entries
// being dropped) goes with it. A later successful capture re-arms.
func (sp *speculator) boundOrCaptureLocked() {
	if sp.repairing || sp.pendingLen() > 0 {
		return
	}
	live := len(sp.log) - sp.trimmedLenLocked()
	if live > sp.logCap {
		sp.disabled = true
		sp.log = nil
		sp.boundary = nil
		sp.logTrips++
		sp.cLogTrips.Inc()
		sp.gLogLen.Set(0)
		return
	}
	sp.maybeBoundaryLocked(live)
}

// maybeBoundaryLocked launches one quiescent TryCapture when the replay
// log has outgrown boundaryEvery and no window is open. The capture is
// validated like Replica.Checkpoint — commit index unchanged and still
// quiescent afterwards — plus a speculation-generation check, and
// installed only if the world held still. While speculation is disabled
// (log cap trip) every call is a capture opportunity regardless of log
// length: a fresh boundary is what re-arms feeding.
func (sp *speculator) maybeBoundaryLocked(live int) {
	if sp.capturing || sp.repairing || sp.pendingLen() > 0 {
		return
	}
	if sp.disabled {
		// Cheap pre-filter: with clients connected the TryCapture cannot
		// be quiescent, so skip the goroutine spawn.
		if sp.r.openConns.Load() != 0 {
			return
		}
	} else if live < sp.boundaryEvery {
		return
	}
	sp.capturing = true
	go sp.captureBoundary(sp.windows + sp.rollbacks)
}

// trimmedLenLocked returns how much of the log precedes the current
// boundary (already restorable without replay). The log is in commit
// order, so the restorable prefix ends at the first index above the
// boundary — found by binary search, since this runs on the delivery
// path for every commit.
func (sp *speculator) trimmedLenLocked() int {
	if sp.boundary == nil {
		return 0
	}
	lo, hi := 0, len(sp.log)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp.log[mid].Index <= sp.boundary.Index {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// captureBoundary runs one TryCapture attempt off the delivery path. gen
// is the speculation generation (windows + rollbacks) snapshotted under
// sp.mu when the attempt was launched: a capture is only installed if the
// generation is unchanged at install time. The commit-index/quiescence
// re-validation alone cannot catch a window that opened mid-capture,
// consumed speculative input (mutating instance and fs state under the
// snapshot), and then aborted via primary loss with the rollback
// completing before the install check — no commit index moved, yet the
// snapshot is contaminated. Any such interleaving opens a window or runs
// a rollback, so the generation comparison rejects it.
func (sp *speculator) captureBoundary(gen uint64) {
	r := sp.r
	defer func() {
		sp.mu.Lock()
		sp.capturing = false
		sp.mu.Unlock()
	}()
	// Short polling loop rather than one shot: this goroutine launches at
	// a commit, and at that instant the just-committed entry (or the next
	// fed bubble's remaining clock grant) usually still sits in a lane
	// queue, so a single TryCapture would almost never find the quiescent
	// gap that opens between commits. A failed attempt is cheap
	// (ErrNotQuiescent returns immediately); the loop is bounded and the
	// next commit relaunches if it drains without success.
	var ck *checkpoint.Checkpoint
	for attempt := 0; attempt < 50; attempt++ {
		if r.killed() {
			return
		}
		idxBefore := r.nodes[0].CommitIndex()
		r.execMu.Lock()
		fs := r.fs
		r.execMu.Unlock()
		got, _, err := sp.cp.TryCapture(r, fs, r.baseSnap, func() uint64 { return idxBefore })
		if err == nil && r.nodes[0].CommitIndex() == idxBefore && r.Quiescent() {
			ck = got
			break
		}
		// Input raced the capture (or the server is mid-burst); back off
		// and poll for the next quiet moment.
		time.Sleep(2 * time.Millisecond)
	}
	if ck == nil {
		return
	}
	sp.mu.Lock()
	if !sp.repairing && sp.windows+sp.rollbacks == gen {
		sp.boundary = ck
		r.flt.Control().Note(flight.EvCheckpoint, r.logicalClock(), ck.Index, 0, "")
		// The capture was validated quiescent with the commit index
		// unchanged, so recorded[] cannot have moved since the snapshot:
		// this is the per-lane output count the boundary state embodies.
		copy(sp.recordedAtBoundary, sp.recorded)
		// A fresh restore point re-arms feeding after a log cap trip.
		sp.disabled = false
		// Trim the now-restorable prefix from the replay log.
		keep := sp.log[:0]
		for i := range sp.log {
			if sp.log[i].Index > ck.Index {
				keep = append(keep, sp.log[i])
			}
		}
		for i := len(keep); i < len(sp.log); i++ {
			sp.log[i] = seq.Entry{}
		}
		sp.log = keep
		sp.gLogLen.Set(int64(len(sp.log)))
	}
	sp.mu.Unlock()
}

// active reports whether speculation state is in flight — an open window
// or a running repair. Quiescence (and therefore checkpointing) excludes
// both.
func (sp *speculator) active() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pendingLen() > 0 || sp.repairing
}

// barrier waits out a rollback's state-swap critical section; stop()
// calls it after setting the killed flag so the final Kill targets
// whichever scheduler exists afterwards.
func (sp *speculator) barrier() {
	sp.mu.Lock()
	//lint:ignore SA2001 empty critical section is the point: it orders
	// stop() after any in-flight rollback swap.
	sp.mu.Unlock()
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
		LogTrips:    sp.logTrips,
		Pending:     sp.pendingLen(),
		Buffered:    len(sp.buf),
		LogLen:      len(sp.log),
		Disabled:    sp.disabled,
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

// Package crane assembles the full system of the paper: per-replica
// proxies, the Paxos consensus component, the DMT scheduler with the CRANE
// admission gate, time bubbling, checkpointing, and recovery — behind a
// Cluster API that transparently replicates a papi.Program.
package crane

import (
	"sync/atomic"

	"crane/internal/dmt"
	"crane/internal/hrtimer"
	"crane/internal/seq"
)

// acceptKey is the wait-queue key for threads blocked in accept()/poll()
// on a port; recvKey for threads blocked in recv() on a connection. Both
// implement dmt.Keyer so socket waits stay on the scheduler's
// allocation-free wait-queue path; the high bits namespace the two value
// spaces (ports are small ints, connection ids are a network-wide counter
// that never approaches 2^62).
type acceptKey struct{ port int }
type recvKey struct{ conn uint64 }

// DMTWaitKey implements dmt.Keyer.
func (k acceptKey) DMTWaitKey() uint64 { return 1<<62 | uint64(k.port) }

// DMTWaitKey implements dmt.Keyer.
func (k recvKey) DMTWaitKey() uint64 { return 2<<62 | k.conn }

// gate is check_add_timebubble (paper Fig. 10), invoked by the DMT
// scheduler's token holder at every synchronization operation:
//
//  1. While the Paxos sequence is empty, block (the server must not tick
//     logical clocks, §4 rule 2), asking the proxy to request a time
//     bubble once the sequence has been empty for W_timeout.
//  2. If the head is a time bubble, consume logical clocks from it: one per
//     operation while any application thread is runnable, all that remain
//     at once when the caller is the idle thread of a parked lane.
//  3. If the head is a client socket call, file it (see inbound) when a
//     thread waits on its socket, or when the call has gone unclaimed for a
//     whole rotation (overdue): a CONNECT into its port's backlog, a SEND or
//     CLOSE into its connection's receive buffer, and wake the threads
//     blocked on that socket. A call for a connection the server already
//     closed is dropped. Otherwise the operation is admitted against the
//     head without consuming it, as in the paper.
//
// Because the idle thread files a head nobody claims one rotation later
// whether or not anyone waits for it, no call can wedge the lane: a SEND for a
// connection that is still in the backlog does not keep the workers, all
// blocked in recv on other connections, from the SENDs behind it. Who waits,
// and the rotation, are properties of the deterministic schedule, so every
// replica files each call at the same logical time. And because the wrappers
// read only what is filed, none of them ever branches on whether the next
// entry has arrived yet, which is physical timing.
//
// With bubbling disabled (the paper's §7.2 "plan II"), step 1 is skipped:
// socket calls are admitted at whatever logical time they happen to arrive,
// which is exactly the nondeterminism that makes replicas diverge.
type gate struct {
	r        *Replica
	bubbling bool
	// booted[L] flips when lane L's first application thread is admitted
	// (nil when single-lane). Until then the lane's sequence is withheld:
	// idle ticks consume nothing, so entries (bubble clones) pile up and
	// the lane's consumption position stays at 0. This is what makes
	// StampLane replica-deterministic — a lane's bootstrap thread is
	// inserted by another lane at a physically-timed moment, and any
	// clocks the idle thread consumed before that moment would shift the
	// stamps of the lane's first operations by a timing-dependent amount.
	// With withholding, consumption starts exactly at the lane's first
	// application op (a point of the deterministic lane schedule) and
	// every consumption after it is serialized by the lane token.
	booted []atomic.Bool
	// seen[L] is lane L's consumption position plus one when its idle thread
	// last passed over a head call (see overdue); only that thread touches it.
	seen []uint64
}

func newGate(r *Replica, bubbling bool) *gate {
	g := &gate{r: r, bubbling: bubbling, seen: make([]uint64, r.lanes)}
	if r.lanes > 1 {
		g.booted = make([]atomic.Bool, r.lanes)
	}
	return g
}

// CheckAdmit implements dmt.Gate. Each thread is admitted against its own
// lane's Paxos sequence: lane L's consumption is paced by lane L's
// committed inputs and bubble clones, so the lane's consumption position —
// the cross-lane merge stamp — is replica-deterministic.
func (g *gate) CheckAdmit(t *dmt.Thread) {
	lane := t.LaneID()
	sq := g.r.sqs[lane]
	if g.booted != nil && !g.booted[lane].Load() {
		if t.IsIdle() {
			// Withhold the sequence until the lane boots (see the booted
			// field): a pre-boot idle tick must not consume, wait, or
			// signal — the lane has nothing admissible yet.
			return
		}
		g.booted[lane].Store(true)
	}
	for {
		if !g.awaitInput(t, sq) {
			return // killed: the wrapper's next scheduler call unwinds
		}
		h, ok := sq.Head()
		if !ok {
			return // plan II: nothing to admit against
		}
		if h.Kind == seq.KindBubble {
			// On a parked lane the next NClock operations are idle ticks
			// nothing can interleave with, so the idle thread takes them in
			// one turn: drain the bubble and move the clock as far as those
			// ticks would have (this operation's own PutTurn supplies the
			// last of them). Anyone else ticks once.
			if !t.IdleAdvance(func() uint64 { return g.drainBubble(sq) }) {
				sq.TickBubble()
			}
			return
		}
		if !t.HasWaiter(callKey(&h)) && !g.overdue(t, lane, sq) {
			// Nobody waits for the head call yet: the operation is admitted
			// against it without consuming it (Fig. 10), as every operation
			// was while the call's reader had not come for it.
			return
		}
		e, ok := sq.PopCall(&h)
		if !ok {
			// A speculation abort replaced the head since Head: decide again
			// on the entry that is there now, the one every other replica
			// meets at this operation. The consumption position has not
			// moved, so overdue answers as it did.
			continue
		}
		if g.r.inbound[lane].file(g.r, e) {
			t.BroadcastKey(callKey(e))
		}
		return
	}
}

// overdue reports whether the head call has gone unclaimed for a whole
// rotation: the caller is the idle thread, which every rotation reaches, and it
// met the same head at its previous turn (nothing was consumed since). A reader
// that comes within a rotation claims its call itself, so while the pipeline
// flows calls are filed on demand, and the operations in between are admitted
// against the head, as in the paper. A call no reader comes for is filed one
// rotation late instead of never.
func (g *gate) overdue(t *dmt.Thread, lane int, sq *seq.Sequence) bool {
	if !t.IsIdle() {
		return false
	}
	pos := sq.Progress() + 1 // 0 means "no head seen yet"
	if g.seen[lane] == pos {
		return true
	}
	g.seen[lane] = pos
	return false
}

// callKey is the wait key of the socket operation a client call satisfies.
func callKey(e *seq.Entry) dmt.Keyer {
	if e.Kind == seq.KindConnect {
		return acceptKey{e.Port}
	}
	return recvKey{e.Conn}
}

// drainBubble consumes every remaining clock of sq's head bubble and returns
// how many idle turns that stands in for beyond the current one.
func (g *gate) drainBubble(sq *seq.Sequence) uint64 {
	n := sq.DrainBubble()
	if n == 0 {
		return 0
	}
	g.r.ro.bulkBubbles.Inc()
	g.r.ro.bulkClocks.Add(n)
	return n - 1
}

// awaitInput blocks the token holder while sq is empty (bubbling only). The
// wait delays physical time, never logical time, so it is determinism-
// neutral. It ends when an entry is enqueued. The deadline exists only to
// drive the bubble request, and is armed for exactly as long as
// maybeRequestBubble says nothing new can happen: for what is left of
// W_timeout on the way to starvation, then at the pending request's grace or,
// on a replica that leads nothing, at the pace leadership can change. It is an
// hrtimer, not a runtime timer: with every P idle the runtime would round
// W_timeout up to a millisecond. A wake that leaves the sequence empty (the
// pending request landed without an enqueue) asks again. It reports false
// when the scheduler was killed — a replica stop, a speculation fail-stop
// included — with the sequence still empty.
func (g *gate) awaitInput(t *dmt.Thread, sq *seq.Sequence) bool {
	if !g.bubbling || !sq.Empty() {
		return true
	}
	tm := hrtimer.New()
	defer tm.Stop()
	for sq.Empty() {
		tm.Reset(g.r.maybeRequestBubble())
		select {
		case <-sq.Wake():
		case due := <-tm.C:
			g.r.ro.wtimeoutLate.Since(due)
		case <-t.Done():
			return false
		}
	}
	return true
}

// BusyLane implements dmt.Gate: lane L's idle thread keeps rotating while
// lane L's own sequence has pending entries (it is the mechanism that
// exhausts bubble clocks rapidly when every server thread is blocked,
// §3.1/§4). A pre-boot lane is never busy (its sequence is withheld), so
// its idle thread sleeps instead of burning a core on the bubble clones
// piling up for post-boot consumption.
func (g *gate) BusyLane(lane int) bool {
	if g.booted != nil && !g.booted[lane].Load() {
		return false
	}
	return !g.r.sqs[lane].Empty()
}

// StampLane implements dmt.Gate: lane L's cross-lane merge stamp is its
// sequence's consumption position (bubble clocks + consumed client calls).
// It is replica-deterministic at every lane operation — nothing is consumed
// before the lane's first application op, and every consumption after it is
// serialized by the lane token — and it keeps advancing while a lane is
// quiescent (its idle thread drains bubble clones), which is what lets
// other lanes' merge waits complete.
func (g *gate) StampLane(lane int) uint64 { return g.r.sqs[lane].Progress() }

package seq

import (
	"slices"
	"sync"
)

// Groups is the vector-clock merge that turns N independent Paxos groups'
// committed streams back into one deterministic global sequence (ISSUE 10).
// It sits between the per-group delivery callbacks and the DMT lane queues:
// each group's entries arrive in that group's commit order, are parked in a
// per-group FIFO, and are emitted in an order that is a pure function of
// the per-group stream contents — identical on every replica regardless of
// how the group deliveries interleave in real time.
//
// Ordering rule. Every entry carries an admission Stamp drawn from the
// primary's shared counter, strictly monotone within its group. The merge
// tracks a watermark vector W, where W[g] is the effective stamp of the
// last entry emitted from group g. A head entry's effective stamp is
//
//	eff = max(Stamp, W[g]+1)
//
// — the bump keeps each group's effective stream strictly monotone even
// when a failover makes a new primary assign stamps below what its
// predecessor already committed (raw stamps may regress; effective stamps
// cannot). The candidate is the nonempty head minimizing (eff, group id),
// and it is emittable only when every EMPTY group h already has W[h] >=
// eff: h's next entry will get eff' >= W[h]+1 > eff, so nothing that could
// sort earlier can still arrive. Time bubbles carry a stamp vector Vec;
// applying it to W on emission is what lets an idle group's watermark
// advance without traffic, keeping the merge live (the empty-group
// liveness of the satellite tests).
//
// With one group no other group can be empty, so every delivery emits at
// once in delivery order: a one-group deployment runs this same code and
// never parks or reorders anything.
type Groups struct {
	mu   sync.Mutex
	emit func(*Entry) // invoked under mu, in merge order

	qs    [][]*Entry // per-group pending FIFO (head-indexed, compacting)
	heads []int
	w     []uint64 // watermark vector: effective stamp last emitted per group

	// stats
	delivered uint64
	emitted   uint64
	stalls    uint64 // drain passes that parked entries behind an empty group
	vecBumps  uint64 // watermark advances applied from bubble vectors
}

// NewGroups creates a merge over n groups emitting into emit. The emit
// callback runs with the merge lock held, in the deterministic merge
// order; it must not call back into the Groups.
func NewGroups(n int, emit func(*Entry)) *Groups {
	if n < 1 {
		n = 1
	}
	return &Groups{
		emit:  emit,
		qs:    make([][]*Entry, n),
		heads: make([]int, n),
		w:     make([]uint64, n),
	}
}

// Deliver feeds one committed entry from group gi and drains everything
// the merge rule now allows. Safe to call concurrently from the per-group
// delivery goroutines; emission is serialized under the merge lock.
func (g *Groups) Deliver(gi int, e *Entry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.delivered++
	g.qs[gi] = append(g.qs[gi], e)
	g.drainLocked()
}

// drainLocked emits entries while the merge rule allows. Called with mu
// held.
func (g *Groups) drainLocked() {
	for {
		// Pick the candidate: nonempty head minimizing (eff, group id).
		cand := -1
		var candEff uint64
		for gi := range g.qs {
			if g.heads[gi] >= len(g.qs[gi]) {
				continue
			}
			eff := max(g.qs[gi][g.heads[gi]].Stamp, g.w[gi]+1)
			if cand == -1 || eff < candEff {
				cand, candEff = gi, eff
			}
		}
		if cand == -1 {
			return
		}
		// Gate on empty groups: one of them could still deliver an entry
		// sorting before candEff unless its watermark already covers it
		// (W[h] == candEff is safe — h's next effective stamp exceeds it).
		for h := range g.qs {
			if g.heads[h] >= len(g.qs[h]) && g.w[h] < candEff {
				g.stalls++
				return
			}
		}
		e := g.popLocked(cand)
		g.w[cand] = candEff
		if e.Kind == KindBubble {
			for h, v := range e.Vec {
				if h < len(g.w) && v > g.w[h] {
					g.w[h] = v
					g.vecBumps++
				}
			}
		}
		g.emitted++
		g.emit(e)
	}
}

func (g *Groups) popLocked(gi int) *Entry {
	q := g.qs[gi]
	e := q[g.heads[gi]]
	q[g.heads[gi]] = nil
	g.heads[gi]++
	if g.heads[gi] == len(q) {
		g.qs[gi] = q[:0]
		g.heads[gi] = 0
	} else if g.heads[gi] >= 32 && g.heads[gi]*2 >= len(q) {
		// Compact once the consumed prefix dominates (same policy as
		// Sequence.popLocked), bounding dead-prefix growth under a
		// standing cross-group backlog.
		live := copy(q, q[g.heads[gi]:])
		clearTail := q[live:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		g.qs[gi] = q[:live]
		g.heads[gi] = 0
	}
	return e
}

// Pending returns the number of committed entries parked across all
// groups, awaiting merge emission.
func (g *Groups) Pending() int { return g.Stats().Pending }

// PendingClientCalls returns the number of parked NON-bubble entries:
// admitted client input the program has not yet seen. In steady state the
// merge almost always parks the newest bubble round's tail behind an
// as-yet-empty group, so Pending() rarely reads 0 on a live cluster;
// quiescence checks must ignore that padding and gate only on client
// calls (a dropped bubble is a lost clock grant the idle thread never
// consumed — invisible to the schedule hash — while a dropped client call
// is lost input).
func (g *Groups) PendingClientCalls() int { return g.Stats().PendingClient }

// Watermarks snapshots the full watermark vector (checkpoint capture).
func (g *Groups) Watermarks() []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]uint64, len(g.w))
	copy(out, g.w)
	return out
}

// SetWatermarks installs a checkpointed watermark vector on a fresh merge
// (restore path): the restored replica must bump and gate exactly as the
// live replicas did at the capture point, or post-restore effective stamps
// would diverge. Ignores vectors of the wrong length.
func (g *Groups) SetWatermarks(w []uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(w) != len(g.w) {
		return
	}
	copy(g.w, w)
}

// MaxWatermark returns the highest watermark across groups — the stamp
// floor a new primary must assign above to preserve admission order.
func (g *Groups) MaxWatermark() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Max(g.w)
}

// GroupStats is a snapshot of the merge counters.
type GroupStats struct {
	Groups        int
	Delivered     uint64 // entries fed by group delivery callbacks
	Emitted       uint64 // entries emitted in merge order
	Pending       int    // entries currently parked (incl. bubble padding)
	PendingClient int    // parked non-bubble entries: unexecuted client input
	Stalls        uint64 // drain passes blocked behind an empty group
	VecBumps      uint64 // watermark advances from bubble vectors
}

// Stats returns a snapshot of the merge counters.
func (g *Groups) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	pend, client := 0, 0
	for gi := range g.qs {
		pend += len(g.qs[gi]) - g.heads[gi]
		for i := g.heads[gi]; i < len(g.qs[gi]); i++ {
			if g.qs[gi][i].Kind != KindBubble {
				client++
			}
		}
	}
	return GroupStats{
		Groups:        len(g.qs),
		Delivered:     g.delivered,
		Emitted:       g.emitted,
		Pending:       pend,
		PendingClient: client,
		Stalls:        g.stalls,
		VecBumps:      g.vecBumps,
	}
}

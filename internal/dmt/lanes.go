package dmt

// Parallel execution lanes: multiple deterministic token domains in one
// scheduler, the conflict-aware-parallelism redesign motivated by
// "Rethinking State-Machine Replication for Parallelism" (Marandi et al.).
//
// Each lane *is* a Scheduler: its own run queue, wait table, logical clock,
// and round-robin token — all the single-token machinery of dmt.go, reused
// unchanged. The root scheduler (the one created by New) is lane 0;
// SetLanes(n) attaches n-1 child schedulers that share the root's
// WaitGroup, gate, and a crossDomain. The single-lane configuration never
// allocates any of this, so the pre-lane behaviour is the 1-lane special
// case, bit for bit.
//
// Threads are pinned to a lane for life. Synchronization objects are
// either *lane-bound* (BindLane; usable only from their lane's threads,
// enforced at runtime and by cranevet's laneconsistency analyzer) or
// *cross-lane* (unbound while more than one lane exists): cross objects
// are manipulated under the crossDomain merge, which linearizes every
// cross-lane operation by the stamp (laneClock, laneID) — lowest wins —
// so the global order of conflicting operations is a pure function of the
// per-lane schedules and therefore replica-identical.
//
// Cross-lane mutexes and rwmutexes use a trylock-spin: each attempt is one
// ordinary scheduled operation in the caller's lane (ticking that lane's
// clock) whose trylock body executes at the attempt's merge position. The
// number of retries is itself determined by the merge order, so per-lane
// schedules stay deterministic. Each primitive has one acquire and one
// release body (sync.go); the in-lane wait path and the cross-lane helper
// (crossOp) both run it. Condition variables and Join do not span
// lanes (they panic); apps partition waiters per lane instead.
//
// Merge stamps come in two flavours:
//
//   - gated (a CRANE gate is installed): the gate's StampLane value —
//     the lane's consumption position in its committed input stream
//     (bubble clocks + consumed client calls). The lane *clock* is NOT
//     usable here: idle ticks before a lane's bootstrap thread lands are
//     physically timed (the cross-lane insertion races the idle rotation),
//     so clock-derived stamps diverge across replicas during bootstrap.
//     Consumption does not have that flaw because the gate withholds a
//     lane's sequence until its first application op (see crane's
//     gate.CheckAdmit): nothing is consumed before a point that is itself
//     an op of the deterministic lane schedule, and every consumption
//     after it is token-serialized. Bubbles cloned into every lane keep a
//     quiescent lane's consumption advancing, which is what guarantees
//     liveness of the merge wait below.
//   - gateless (plain Parrot / unit tests): the app clock, which counts
//     only non-idle ticks (idle rotations are timing-dependent when no
//     gate paces them). A lane that is parked — only its idle thread
//     runnable, nothing in reentry, no armed soft barrier — cannot produce
//     a cross operation until some other lane's (startup-ordered) action
//     wakes it, so parked lanes are skipped when deciding merge turns.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"crane/internal/obs/flight"
)

// crossDomain is the shared merge point for operations that span lanes.
type crossDomain struct {
	mu sync.Mutex
	// stamp, when non-nil, is the gate's StampLane method (gated
	// mode); nil means gateless (app-clock stamps + parked-lane escape).
	stamp func(lane int) uint64
	lanes []*Scheduler
	// pending[L] holds lane L's registered cross-op stamp while has[L].
	// At most one cross op per lane can be in flight (its caller holds the
	// lane token), so a single slot per lane suffices.
	pending []uint64
	has     []bool
}

// SetLanes splits the scheduler into n deterministic token domains. Must be
// called before Start, at most once; each lane then keeps its own schedule
// (and its own flight journal, see SetFlight). n <= 1 leaves the scheduler
// in its single-token configuration.
func (s *Scheduler) SetLanes(n int) {
	if n <= 1 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("dmt: SetLanes after Start")
	}
	if s.group != nil {
		panic("dmt: SetLanes on a lane scheduler")
	}
	if s.lanes != nil {
		panic("dmt: SetLanes called twice")
	}
	x := &crossDomain{pending: make([]uint64, n), has: make([]bool, n)}
	s.idStride = n
	s.cross = x
	s.lanes = make([]*Scheduler, 0, n)
	s.lanes = append(s.lanes, s)
	for i := 1; i < n; i++ {
		ln := New()
		ln.laneID = i
		ln.idStride = n
		ln.group = s
		ln.cross = x
		s.lanes = append(s.lanes, ln)
	}
	x.lanes = s.lanes
}

// Lanes returns the number of token domains (1 unless SetLanes configured
// more). Valid on the root and on any lane.
func (s *Scheduler) Lanes() int {
	if s.group != nil {
		return len(s.group.lanes)
	}
	if len(s.lanes) == 0 {
		return 1
	}
	return len(s.lanes)
}

// LaneID reports which lane this scheduler is (0 on the root).
func (s *Scheduler) LaneID() int { return s.laneID }

// laneSched resolves a lane index to its scheduler, wrapping modulo the
// configured lane count. Valid on the root.
func (s *Scheduler) laneSched(lane int) *Scheduler {
	if len(s.lanes) == 0 {
		return s
	}
	lane %= len(s.lanes)
	if lane < 0 {
		lane += len(s.lanes)
	}
	return s.lanes[lane]
}

// LaneSched returns lane i's scheduler (the root itself when single-lane).
func (s *Scheduler) LaneSched(i int) *Scheduler { return s.root().laneSched(i) }

func (s *Scheduler) root() *Scheduler {
	if s.group != nil {
		return s.group
	}
	return s
}

// SpawnLane creates a thread in the given lane's run queue. A cross-lane
// spawn (parent in a different lane, or nil) may only BOOTSTRAP the target
// lane: it panics unless the lane has never held an application thread.
// The restriction is what keeps lane schedules replica-deterministic —
// inserting a thread into a lane that is already executing would race the
// insertion against that lane's token rotation, making the new thread's
// first turn (and every rotation after it) a physically-timed accident.
// Into an empty lane the race is harmless: only the hash-excluded idle
// thread is rotating, so the bootstrap thread's operations are totally
// ordered by its own execution. The bootstrap thread then builds its
// lane's worker pool with ordinary in-lane Spawns, which are scheduled
// operations of the lane itself and therefore fully ordered.
func (s *Scheduler) SpawnLane(parent *Thread, lane int, name string, fn func(*Thread)) *Thread {
	ls := s.root().laneSched(lane)
	if parent == nil || parent.s == ls {
		return ls.Spawn(parent, name, fn)
	}
	if ls.spawnedA.Load() != 0 {
		panic(fmt.Sprintf("dmt: cross-lane spawn %q into non-empty lane %d (cross-lane spawns may only bootstrap a lane; spawn a lane-main thread and build the pool in-lane)", name, lane))
	}
	// The spawn is a scheduled operation in the parent's lane; the child
	// lands at the tail of the target (idle-only) lane.
	parent.GetTurn()
	parent.Admit()
	child := ls.spawn(name, fn, false)
	parent.PutTurn()
	return child
}

// LaneID reports the lane the thread is pinned to.
func (t *Thread) LaneID() int { return t.s.laneID }

// LaneClock returns the logical clock of the thread's own lane as stamped
// at the thread's last scheduled operation. The live clock also counts the
// idle thread's ticks made in physical time since then, so reading it
// outside a turn would differ across replicas; the stamp depends only on
// turn order. Call it from the thread's own goroutine.
func (t *Thread) LaneClock() uint64 { return t.clock }

// assertLane panics when a lane-bound synchronization object is used from a
// thread pinned to a different lane — the runtime complement of cranevet's
// laneconsistency analyzer. lane is the object's 1-based binding (0 =
// unbound).
func (t *Thread) assertLane(lane int32, what string) {
	if lane != 0 && int(lane-1) != t.s.laneID {
		panic(fmt.Sprintf("dmt: %s bound to lane %d used from lane %d (thread %q)",
			what, lane-1, t.s.laneID, t.name))
	}
}

// parkedLane reports whether the lane cannot produce a cross-lane operation
// until an external event re-populates it: only the idle thread is
// runnable, no thread is returning from a blocking call, and no soft
// barrier is armed (an armed barrier's timeout re-inserts waiters on idle
// ticks). Read entirely from atomic mirrors — zero cost on the hot path.
func (s *Scheduler) parkedLane() bool {
	return s.runqLenA.Load() == 1 && s.reentryLenA.Load() == 0 &&
		s.activeBarriersA.Load() == 0
}

// Parked reports parkedLane for this lane's scheduler (see LaneSched). Read
// outside a turn it is a physical-time observation, fit for pacing decisions
// that never reach the schedule.
func (s *Scheduler) Parked() bool { return s.parkedLane() }

// CrossPending reports whether a cross-lane operation is registered and
// waiting for its merge turn (always false single-lane).
func (s *Scheduler) CrossPending() bool {
	x := s.root().cross
	if x == nil {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, h := range x.has {
		if h {
			return true
		}
	}
	return false
}

// IdleAdvance lets the idle thread of a parked lane stand in for a run of its
// own consecutive operations. When the caller is that thread it calls turns,
// which does whatever those operations would have done and returns how many
// there were, advances the lane clock by that count and reports true. Nothing
// can interleave with the skipped operations — no application thread is
// runnable, none is re-entering, no soft-barrier deadline is counting ticks —
// and idle ticks fold into neither the schedule hash nor the flight chain,
// so the only thing they would have changed is the clock value the next
// application operation reads, which this sets directly. For any other
// caller it calls nothing and reports false: a clock jump would skip
// turns other threads were owed, and the caller takes its turns one by one
// instead. The caller must hold the token (it panics otherwise); turns runs
// outside the scheduler lock.
func (t *Thread) IdleAdvance(turns func() uint64) bool {
	s := t.s
	s.mu.Lock()
	if s.rlen == 0 || s.runq[s.rhead] != t {
		s.mu.Unlock()
		panic(fmt.Sprintf("dmt: IdleAdvance by thread %d (%s) without the token", t.id, t.name))
	}
	ok := t.isIdle && s.parkedLane()
	s.mu.Unlock()
	if !ok {
		return false
	}
	n := turns()
	s.mu.Lock()
	s.clock += n
	s.clockA.Store(s.clock)
	s.mu.Unlock()
	return true
}

// stampOf reads lane ln's merge stamp: under a gate, the gate-provided
// consumption position of the lane's committed input stream (see the
// package comment — the only replica-deterministic choice); the app clock
// without one (idle ticks are timing-dependent when ungated). A lane whose
// sequence is still withheld (no application op yet) reports stamp 0:
// cross-lane operations wait for every lane's bootstrap — whether a lane
// has booted when another lane polls is physically timed, so the merge may
// not decide anything based on it. Liveness is bubble-driven: bubbles are
// cloned into every lane, so a lane boots within a bubble cadence of its
// bootstrap spawn and its stamp starts advancing.
func (x *crossDomain) stampOf(ln *Scheduler) uint64 {
	if x.stamp != nil {
		return x.stamp(ln.laneID)
	}
	return ln.appClockA.Load()
}

// turnLocked reports whether a cross op stamped (c, L) is globally next:
// every other lane must have either registered a later-stamped op, advanced
// its stamp past c (all its future cross ops will stamp later — a lane's
// stamp is frozen while one of its threads is between Admit and
// registration, because that thread holds the lane token and nothing else
// in the lane can consume), or — in gateless mode — be parked. Caller
// holds x.mu.
func (x *crossDomain) turnLocked(c uint64, L int) bool {
	for M, ln := range x.lanes {
		if M == L {
			continue
		}
		if x.has[M] {
			cm := x.pending[M]
			if cm < c || (cm == c && M < L) {
				return false
			}
			continue
		}
		if x.stampOf(ln) > c {
			continue
		}
		if x.stamp == nil && ln.parkedLane() {
			continue
		}
		return false
	}
	return true
}

// crossDo executes f as a merge-ordered cross-lane operation and returns
// its result. The caller holds its lane token (between Admit and PutTurn),
// so the lane's stamp is frozen at the op's value; registration publishes
// the stamp, the poll waits until every lower-stamped op has drained, and f
// runs under x.mu at exactly its merge position. The caller must PutTurn
// immediately after (the tick is what lets other lanes' equal-stamped ops
// proceed).
func (s *Scheduler) crossDo(t *Thread, f func() bool) bool {
	x := s.cross
	L := s.laneID
	c := x.stampOf(s)
	x.mu.Lock()
	x.pending[L], x.has[L] = c, true
	spins := 0
	for !x.turnLocked(c, L) {
		x.mu.Unlock()
		if s.killedA.Load() {
			x.mu.Lock()
			x.has[L] = false
			x.mu.Unlock()
			panic(killedPanic{})
		}
		// Brief yields catch the common case (another lane mid-operation);
		// the timed sleep bounds spin cost while a slow lane's clock
		// catches up (bubble-paced in gated mode). A runtime sleep, like the
		// idle thread's nap (see idleLoop).
		spins++
		if spins < 32 && spinnable {
			runtime.Gosched()
		} else {
			time.Sleep(2 * time.Microsecond)
		}
		x.mu.Lock()
	}
	if s.flight != nil {
		// The merge position is linearized here: (stamp, lane) lowest-wins
		// has granted this op its turn, so journal the stamp into the
		// caller's lane ring. The caller still holds its lane token, so the
		// single-writer discipline holds.
		s.flight.Emit(flight.EvMerge, s.clockA.Load(), flight.PosUnchanged, uint64(t.id), c)
	}
	ok := f()
	x.has[L] = false
	x.mu.Unlock()
	return ok
}

// BindLane pins the mutex to a lane: only threads of that lane may use it,
// and it stays on the in-lane fast path when multiple lanes exist. papi's
// NewMutexLane is the public surface.
func (m *Mutex) BindLane(lane int) { m.lane = int32(lane) + 1 }

// BindLane pins the condition variable to a lane (NewCondLane).
func (c *Cond) BindLane(lane int) { c.lane = int32(lane) + 1 }

// BindLane pins the rwmutex to a lane (NewRWMutexLane).
func (rw *RWMutex) BindLane(lane int) { rw.lane = int32(lane) + 1 }

// crossLane reports whether t uses a synchronization object with the given
// lane binding (1-based, 0 = unbound) across lanes: only an unbound object
// with more than one lane configured is. A bound object used from another
// lane panics (assertLane).
func (t *Thread) crossLane(lane int32, what string) bool {
	if t.s.cross == nil {
		return false
	}
	if lane == 0 {
		return true
	}
	t.assertLane(lane, what)
	return false
}

// crossOp runs one of a primitive's acquire or release bodies as a
// merge-ordered cross-lane operation: one scheduled op in the caller's lane
// whose body executes at the op's merge position. It reports the body's
// result. A cross-lane acquire is a trylock-spin over crossOp: whether
// attempt k succeeds is a pure function of the merge order, so the retry
// count — and with it the lane's schedule — is deterministic.
func (t *Thread) crossOp(body func() bool) bool {
	t.GetTurn()
	t.Admit()
	ok := t.s.crossDo(t, body)
	t.PutTurn()
	return ok
}

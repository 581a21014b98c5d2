// Package dmt reimplements the Parrot deterministic-multithreading runtime
// (Cui et al., SOSP'13) that CRANE uses as its DMT scheduler (§3.1 of the
// CRANE paper).
//
// The scheduler serializes all synchronization operations with a global
// token passed round-robin over a run queue. Only the thread at the head of
// the run queue may perform a synchronization operation and manipulate the
// run/wait queues (the paper's key invariant). put_turn rotates the caller
// to the tail and wakes the *queue-next* thread — even if that thread is
// mid-computation and will not reach its next synchronization for a while.
// The token then parks on it. This parking is load-bearing twice over:
//
//   - Determinism: the global order of synchronization operations is the
//     rotation order of the queue, independent of physical timing.
//   - Performance: misaligned compute chunks accumulate parking stalls,
//     which is exactly the pathology Parrot's soft-barrier hints fix
//     (reproduced by Figure 15's benchmark).
//
// A logical clock ticks once per scheduled operation. An internal idle
// thread keeps the queue non-empty (and the clock ticking) when all
// application threads block, mirroring §3.1. CRANE plugs in through the
// Gate interface: every wrapper calls the gate after acquiring the turn
// (paper Fig. 9 line 3 / Fig. 10), which is where time-bubble consumption
// and deterministic socket admission happen.
//
// # Fast path
//
// The token moves by direct handoff: the holder finishes its rotation under
// s.mu, then publishes the grant with a single atomic store into the next
// head's Thread.tok, poking the wake channel only if that thread has
// already parked. GetTurn consumes a pending grant with one atomic
// exchange-shaped pair (load, store) and otherwise spins briefly before
// parking, so a successor that is already at (or about to reach) its next
// synchronization never takes the futex-style channel path at all. The
// store/load pairing with Thread.parked is Dekker-style: the granter stores
// tok then loads parked, the waiter stores parked then loads tok, so one of
// them always observes the other and a parked thread cannot miss a grant.
// None of this changes *which* thread runs next — head selection still
// happens under s.mu, in exactly the order the original unlock→poke→wake→
// re-lock→re-check implementation produced — only how the chosen thread
// learns about it.
//
// The run queue is a power-of-two ring buffer: rotation is O(1) with no
// allocation (the previous append(runq[1:], t) reallocated on every single
// PutTurn), and positional wake-up insertion keeps byte-for-byte the slice
// semantics the determinism tests were recorded against. Wait queues are
// intrusive per-key FIFOs (waitq.go). Counters are mirrored into atomics at
// each write so Stats/Clock/Killed/RunQueueLen and the obs gauge scrapes
// never touch s.mu.
package dmt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/obs"
	"crane/internal/obs/flight"
)

// Gate is CRANE's hook into the scheduler (the check_add_timebubble
// function of Fig. 10). CheckAdmit is invoked by the token holder at the
// start of every scheduled operation. Implementations may block (e.g.
// while the Paxos sequence is empty), consume time-bubble clocks, and
// signal threads blocked on socket keys via t.SignalKey.
type Gate interface {
	CheckAdmit(t *Thread)
}

// Stats is a snapshot of scheduler counters. Counters are read from atomic
// mirrors without taking the scheduler lock, so a snapshot taken while the
// scheduler runs is monotonic but not a single atomic cut — fine for
// metrics scrapes; exact cuts are available at quiescence.
type Stats struct {
	Clock       uint64 // logical clock: one tick per scheduled op
	TokenPasses uint64 // put_turn rotations
	Waits       uint64 // wait() calls (thread moved to a wait queue)
	Signals     uint64 // signal/broadcast wake-ups delivered
	Spawned     uint64 // threads created (excluding the idle thread)
	ScheduleSum uint64 // FNV-1a hash of the (thread, op) schedule so far
	// Epoch counts speculation rollbacks that restored from a checkpoint
	// boundary instead of replaying from genesis. A genesis replay
	// reproduces the boot schedule bit for bit, so epoch 0 keeps
	// cross-replica ScheduleSum comparisons exact; a boundary restore
	// skips the pre-checkpoint schedule, so the epoch is folded into
	// ScheduleSum — fingerprints then compare post-repair state instead of
	// accidentally (never) matching a replica that executed from boot.
	Epoch uint64
}

// Scheduler is a Parrot-style round-robin DMT scheduler.
type Scheduler struct {
	// mu guards the run queue, wait table, reentry queue, barriers, and
	// record/replay state. The token holder takes it once per scheduled
	// operation; nothing else takes it on the hot path (stats, clock and
	// gauge reads are all served by the atomic mirrors below).
	mu sync.Mutex

	// Run queue: a power-of-two ring. runq[rhead] is the token holder;
	// rotation and head removal are O(1), positional insertion preserves
	// the exact semantics of the slice implementation it replaced
	// (including transiently holding a thread twice when a barrier
	// self-release races its own WaitOn — see releaseExpiredBarriersLocked).
	runq  []*Thread
	rhead int
	rlen  int

	// Wait table (waitq.go): open-addressing slots of intrusive FIFOs.
	wslots     []waitSlot
	wused      int
	keySeq     uint64
	internKeys map[any]uint64

	// reentry holds threads returning from *real* (nondeterministic)
	// blocking socket calls in plain-Parrot mode; the token holder drains
	// it into the run queue at every rotation (§3.1 "socket queue").
	// Intrusive FIFO through Thread.wnext (a thread is never in a wait
	// queue and the reentry queue at once).
	reentryHead *Thread
	reentryTail *Thread

	// Counters: plain fields written only by the token holder under mu,
	// each mirrored into an atomic at every write so readers never contend
	// with the token. (Mirror stores are plain MOVs on amd64 — cheaper than
	// atomic adds, and single-writer-correct under mu.)
	clock       uint64
	tokenPasses uint64
	waits       uint64
	signals     uint64
	spawned     uint64
	schedHash   uint64

	clockA       atomic.Uint64
	tokenPassesA atomic.Uint64
	waitsA       atomic.Uint64
	signalsA     atomic.Uint64
	spawnedA     atomic.Uint64
	schedHashA   atomic.Uint64
	runqLenA     atomic.Int64
	reentryLenA  atomic.Int64

	// Lane state (lanes.go). On a single-lane scheduler laneID is 0,
	// idStride 1, and group/lanes/cross are nil — every lane branch below
	// is a predicted-not-taken compare, keeping the 1-lane hot path (and
	// schedule) identical to the pre-lane implementation.
	laneID   int
	idStride int
	group    *Scheduler   // root scheduler when this is a child lane
	lanes    []*Scheduler // on the root: all lanes including itself
	cross    *crossDomain // shared merge domain; nil when single-lane
	// appClock counts non-idle ticks: the gateless merge stamp (idle ticks
	// are timing-dependent without a gate pacing them). Maintained only
	// when cross != nil. activeBarriersA counts armed soft barriers (see
	// parkedLane).
	appClock        uint64
	appClockA       atomic.Uint64
	activeBarriersA atomic.Int64

	// turnWait measures the GetTurn park path (thread parked waiting for
	// the token). Installed by SetObs before Start, nil when off; the idle
	// thread's parking is excluded (it parks by design whenever any
	// application thread runs), and so is time spent in the pre-park spin.
	turnWait *obs.Histogram

	// flight is this lane's divergence-forensics journal. Written only by
	// the token holder under mu (same single-writer discipline as the
	// counters), through the preallocated Emit path; nil when recording is
	// off. Idle-thread ticks are excluded exactly as they are from
	// schedHash, so the journaled stream is replica-deterministic.
	flight *flight.Journal

	gate      Gate
	observer  Observer
	barriers  []*SoftBarrier
	recording *Schedule
	replay    *Schedule
	replayPos int
	replayErr error

	// epochA is the speculation epoch (see Stats.Epoch); set once before
	// Start on a scheduler rebuilt from a checkpoint boundary.
	epochA atomic.Uint64

	nextID  int
	killedA atomic.Bool
	killCh  chan struct{}
	wg      sync.WaitGroup
	idle    *Thread
	started bool

	// IdleSleep is how long the idle thread sleeps per rotation when it is
	// the only runnable thread and nothing needs exhausting. Keeps a quiet
	// server from burning a core. Zero means 50µs.
	IdleSleep time.Duration
}

// New creates a scheduler. Call Start before spawning application threads.
func New() *Scheduler {
	s := &Scheduler{
		runq:      make([]*Thread, 8),
		wslots:    make([]waitSlot, 32),
		killCh:    make(chan struct{}),
		schedHash: 14695981039346656037, // FNV-1a offset basis
		idStride:  1,
	}
	s.schedHashA.Store(s.schedHash)
	return s
}

// SetGate installs the CRANE admission gate. Must be called before Start.
func (s *Scheduler) SetGate(g Gate) { s.gate = g }

// SetEpoch marks the scheduler as executing from a speculation-rollback
// checkpoint boundary (see Stats.Epoch). Call before Start, on the root.
func (s *Scheduler) SetEpoch(e uint64) { s.epochA.Store(e) }

// SetFlight installs this lane's flight-recorder journal. Must be called
// before Start (on each lane scheduler when lanes are configured); nil
// disables journaling.
func (s *Scheduler) SetFlight(j *flight.Journal) { s.flight = j }

// SetObs registers scheduler instruments into reg: the turn-wait histogram
// and gauges over the running counters. Must be called before Start; a nil
// reg is a no-op. The gauges read atomic mirrors, so a /metrics scrape
// never contends with the scheduler token.
func (s *Scheduler) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.turnWait = reg.Histogram("dmt_turn_wait_seconds",
		"time an application thread parks waiting for the scheduler token")
	reg.GaugeFunc("dmt_clock", "logical clock (one tick per scheduled op)", func() float64 {
		return float64(s.ClockFast())
	})
	reg.GaugeFunc("dmt_token_passes_total", "put_turn rotations", func() float64 {
		return float64(s.Stats().TokenPasses)
	})
	reg.GaugeFunc("dmt_waits_total", "wait() calls", func() float64 {
		return float64(s.Stats().Waits)
	})
	reg.GaugeFunc("dmt_signals_total", "signal/broadcast wake-ups delivered", func() float64 {
		return float64(s.Stats().Signals)
	})
	reg.GaugeFunc("dmt_threads_spawned_total", "application threads created", func() float64 {
		return float64(s.Stats().Spawned)
	})
	reg.GaugeFunc("dmt_runq_len", "current run-queue length", func() float64 {
		return float64(s.RunQueueLen())
	})
	reg.GaugeFunc("dmt_epoch", "speculation epoch (boundary-restore rebuilds)", func() float64 {
		return float64(s.epochA.Load())
	})
	if len(s.lanes) > 1 {
		// Per-lane instruments (call SetLanes before SetObs): token-handoff
		// counters, occupancy gauges, and turn-wait histograms, one set per
		// lane. Each lane records its turn waits into its own histogram
		// (including lane 0, whose per-lane name supersedes the aggregate
		// registered above — that one stays for single-lane deployments).
		for i, ln := range s.lanes {
			ln := ln
			//crane:obsreg-ok one registration per lane, names are lane-unique
			ln.turnWait = reg.Histogram(fmt.Sprintf("dmt_lane%d_turn_wait_seconds", i),
				fmt.Sprintf("time a lane-%d thread parks waiting for its lane token", i))
			//crane:obsreg-ok one registration per lane, names are lane-unique
			reg.GaugeFunc(fmt.Sprintf("dmt_lane%d_clock", i),
				fmt.Sprintf("lane %d logical clock", i), func() float64 {
					return float64(ln.clockA.Load())
				})
			//crane:obsreg-ok one registration per lane, names are lane-unique
			reg.GaugeFunc(fmt.Sprintf("dmt_lane%d_token_passes_total", i),
				fmt.Sprintf("lane %d put_turn rotations (token handoffs)", i), func() float64 {
					return float64(ln.tokenPassesA.Load())
				})
			//crane:obsreg-ok one registration per lane, names are lane-unique
			reg.GaugeFunc(fmt.Sprintf("dmt_lane%d_runq_len", i),
				fmt.Sprintf("lane %d run-queue occupancy", i), func() float64 {
					return float64(ln.runqLenA.Load())
				})
		}
	}
}

// ClockFast returns the logical clock from atomic mirrors, without taking
// any scheduler lock. Safe from any goroutine, including callbacks that
// already hold other locks. Summed over lanes on a multi-lane root.
func (s *Scheduler) ClockFast() uint64 {
	if len(s.lanes) > 1 {
		var c uint64
		for _, ln := range s.lanes {
			c += ln.clockA.Load()
		}
		return c
	}
	return s.clockA.Load()
}

// Start launches the internal idle thread — one per lane when SetLanes
// configured more than one. It must be called exactly once, on the root.
func (s *Scheduler) Start() { s.StartMain("", nil) }

// StartMain is Start plus the program's first thread, queued behind the
// root lane's idle thread before either runs. Spawning it after Start lets
// the idle thread take a timing-dependent number of turns alone first, and
// each of them ticks the logical clock (T.Now reads it). A nil fn queues
// no thread and returns nil.
func (s *Scheduler) StartMain(name string, fn func(*Thread)) *Thread {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("dmt: Start called twice")
	}
	s.started = true
	s.mu.Unlock()
	if len(s.lanes) > 1 {
		// Gate, observer, and idle pacing are installed on the root before
		// Start; fan them out to every lane. Observers may now be invoked
		// concurrently (one token holder per lane), so serialize them.
		if s.gate != nil {
			sg, ok := s.gate.(LaneStampGate)
			if !ok {
				panic("dmt: a gate on a multi-lane scheduler must implement LaneStampGate (cross-lane merge stamps come from the committed input stream)")
			}
			s.cross.stamp = sg.StampLane
		}
		if s.observer != nil {
			var omu sync.Mutex
			inner := s.observer
			s.observer = func(e Event) {
				omu.Lock()
				inner(e)
				omu.Unlock()
			}
		}
		for _, ln := range s.lanes[1:] {
			ln.gate = s.gate
			ln.observer = s.observer
			ln.IdleSleep = s.IdleSleep
			ln.started = true
		}
	}
	s.mu.Lock()
	s.idle = s.newThreadLocked("idle", true)
	var main *Thread
	if fn != nil {
		main = s.newThreadLocked(name, false)
	}
	s.mu.Unlock()
	s.grant(s.idle)
	s.launch(s.idle, func(t *Thread) { s.idleLoop(t) })
	if len(s.lanes) > 1 {
		for _, ln := range s.lanes[1:] {
			ln := ln
			ln.idle = ln.spawn("idle", func(t *Thread) { ln.idleLoop(t) }, true)
		}
	}
	if main != nil {
		// After the other lanes' idle threads: main may bootstrap them
		// (SpawnLane) as soon as it runs.
		s.launch(main, fn)
	}
	return main
}

// killedPanic is the sentinel thrown through application threads when the
// scheduler is killed; the Spawn wrapper recovers it.
type killedPanic struct{}

// Kill tears the scheduler down: every thread blocked in a scheduled
// operation unwinds. Threads blocked in real I/O (plain-Parrot mode) must
// be unblocked by closing their sockets. Wait for full teardown with Join.
func (s *Scheduler) Kill() {
	if len(s.lanes) > 1 {
		for _, ln := range s.lanes {
			ln.mu.Lock()
			ln.killLocked()
			ln.mu.Unlock()
		}
		return
	}
	s.mu.Lock()
	s.killLocked()
	s.mu.Unlock()
}

// killLocked tears the scheduler down; caller holds s.mu. Pokes are
// non-blocking sends, safe under the lock.
func (s *Scheduler) killLocked() {
	if !s.killedA.CompareAndSwap(false, true) {
		return
	}
	s.pubLocked()
	close(s.killCh)
	for i := 0; i < s.rlen; i++ {
		s.runqAt(i).poke()
	}
	for i := range s.wslots {
		for w := s.wslots[i].head; w != nil; w = w.wnext {
			w.poke()
		}
	}
	for w := s.reentryHead; w != nil; w = w.wnext {
		w.poke()
	}
}

// Join blocks until every thread (including the idle thread) has exited.
func (s *Scheduler) Join() { s.wg.Wait() }

// Killed reports whether Kill has been called.
func (s *Scheduler) Killed() bool { return s.killedA.Load() }

// Stats returns a snapshot of the counters (lock-free; see Stats type doc).
// On a multi-lane root the counters are summed over lanes and ScheduleSum
// is an FNV-1a fold of the per-lane schedule hashes in lane order.
func (s *Scheduler) Stats() Stats {
	var agg Stats
	if len(s.lanes) > 1 {
		h := uint64(14695981039346656037)
		for _, ln := range s.lanes {
			st := ln.laneStats()
			agg.Clock += st.Clock
			agg.TokenPasses += st.TokenPasses
			agg.Waits += st.Waits
			agg.Signals += st.Signals
			agg.Spawned += st.Spawned
			h ^= st.ScheduleSum
			h *= 1099511628211
		}
		agg.ScheduleSum = h
	} else {
		agg = s.laneStats()
	}
	if e := s.epochA.Load(); e != 0 {
		// A boundary-restore rebuild skipped the pre-checkpoint schedule:
		// fold the epoch in so its hash never silently equals a boot-replay
		// hash (Stats.Epoch doc).
		agg.Epoch = e
		agg.ScheduleSum = (agg.ScheduleSum ^ e) * 1099511628211
	}
	return agg
}

// laneStats snapshots this lane's own counters.
func (s *Scheduler) laneStats() Stats {
	return Stats{
		Clock:       s.clockA.Load(),
		TokenPasses: s.tokenPassesA.Load(),
		Waits:       s.waitsA.Load(),
		Signals:     s.signalsA.Load(),
		Spawned:     s.spawnedA.Load(),
		ScheduleSum: s.schedHashA.Load(),
	}
}

// LaneStats snapshots one lane's counters (lane 0 on a single-lane
// scheduler).
func (s *Scheduler) LaneStats(lane int) Stats {
	return s.root().laneSched(lane).laneStats()
}

// RunQueueLen returns the current run-queue length (diagnostics,
// lock-free; summed over lanes on a multi-lane root).
func (s *Scheduler) RunQueueLen() int {
	if len(s.lanes) > 1 {
		var n int64
		for _, ln := range s.lanes {
			n += ln.runqLenA.Load()
		}
		return int(n)
	}
	return int(s.runqLenA.Load())
}

// Thread is a scheduled thread. All scheduled operations are methods on
// the thread so the scheduler knows the caller's identity.
type Thread struct {
	s      *Scheduler
	id     int
	name   string
	wake   chan struct{}
	done   bool // set during exit, read under s.mu
	isIdle bool

	// wnext links the intrusive wait-queue / reentry FIFO this thread is
	// blocked on, if any. Guarded by s.mu. A thread is in at most one such
	// queue at a time (WaitOn blocks until the thread is signaled out).
	wnext *Thread

	// tok is the direct-handoff mailbox: 1 means the token has been granted
	// to this thread and its next GetTurn returns after consuming it.
	// Written by the granter (atomic store) and the consumer (store 0).
	tok atomic.Uint32
	// parked is 1 while the thread is (about to be) blocked on its wake
	// channel inside GetTurn. Granters poke the channel only when set.
	parked atomic.Uint32
	// selfTok marks a token granted by the thread's own PutTurn (it was the
	// only runnable thread, so the token comes straight back). Only ever
	// read and written by the owning thread, hence plain.
	selfTok bool
	// clock is the lane clock stamped at this thread's last scheduled
	// operation (tickLocked). Unlike the live clock, which the idle thread
	// ticks in physical time between the thread's turns, it depends only on
	// turn order. Written and read by the owning thread only, hence plain.
	clock uint64
}

// ID returns the deterministic thread id (creation order).
func (t *Thread) ID() int { return t.id }

// Finished reports whether the thread has exited.
func (t *Thread) Finished() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.done
}

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// IsIdle reports whether this is a scheduler-internal idle thread. Gates
// use it to tell pacing rotations from application operations (a lane's
// sequence is withheld until its first application thread is admitted).
func (t *Thread) IsIdle() bool { return t.isIdle }

// Done returns a channel that is closed when the thread's scheduler is
// killed. A gate that blocks inside CheckAdmit selects on it so Kill can
// unwind the token holder.
func (t *Thread) Done() <-chan struct{} { return t.s.killCh }

func (t *Thread) poke() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// grant hands the token to t: one atomic store plus a channel poke only if
// t has parked (or is committed to parking — see the Dekker note on the
// package doc). Safe with or without s.mu held; at most one grant is ever
// outstanding per thread because only the head is granted and a thread
// re-enters head position only after consuming the previous grant.
func (s *Scheduler) grant(t *Thread) {
	t.tok.Store(1)
	if t.parked.Load() != 0 {
		t.poke()
	}
}

// Run-queue ring primitives. All require s.mu.

func (s *Scheduler) runqAt(i int) *Thread {
	return s.runq[(s.rhead+i)&(len(s.runq)-1)]
}

func (s *Scheduler) runqSet(i int, t *Thread) {
	s.runq[(s.rhead+i)&(len(s.runq)-1)] = t
}

func (s *Scheduler) runqGrowLocked() {
	old := s.runq
	grown := make([]*Thread, len(old)*2)
	for i := 0; i < s.rlen; i++ {
		grown[i] = old[(s.rhead+i)&(len(old)-1)]
	}
	s.runq = grown
	s.rhead = 0
}

func (s *Scheduler) runqPushBackLocked(t *Thread) {
	if s.rlen == len(s.runq) {
		s.runqGrowLocked()
	}
	s.runqSet(s.rlen, t)
	s.rlen++
	s.runqLenA.Store(int64(s.rlen))
}

func (s *Scheduler) runqPopFrontLocked() {
	s.runq[s.rhead] = nil
	s.rhead = (s.rhead + 1) & (len(s.runq) - 1)
	s.rlen--
	s.runqLenA.Store(int64(s.rlen))
}

// runqRotateLocked moves the head to the tail in O(1) — the whole "rotate
// caller to tail" step of put_turn, which previously reallocated the run
// queue on every single pass.
func (s *Scheduler) runqRotateLocked() {
	t := s.runq[s.rhead]
	target := (s.rhead + s.rlen) & (len(s.runq) - 1)
	s.runq[target] = t
	if target != s.rhead {
		s.runq[s.rhead] = nil
	}
	s.rhead = (s.rhead + 1) & (len(s.runq) - 1)
}

// runqInsertLocked inserts w at position pos (>=1) in the run queue,
// clamped to the tail — identical clamping to the slice version. Inserting
// into an empty queue makes w the head and grants it the token.
func (s *Scheduler) runqInsertLocked(w *Thread, pos int) {
	if pos > s.rlen {
		pos = s.rlen
	}
	if pos < 1 {
		pos = 1
	}
	if s.rlen == 0 {
		s.runqPushBackLocked(w)
		s.grant(w)
		return
	}
	if s.rlen == len(s.runq) {
		s.runqGrowLocked()
	}
	for i := s.rlen; i > pos; i-- {
		s.runqSet(i, s.runqAt(i-1))
	}
	s.runqSet(pos, w)
	s.rlen++
	s.runqLenA.Store(int64(s.rlen))
}

// runqMoveToFrontLocked promotes position i to the head (replay reorder).
func (s *Scheduler) runqMoveToFrontLocked(i int) {
	if i == 0 {
		return
	}
	th := s.runqAt(i)
	for j := i; j > 0; j-- {
		s.runqSet(j, s.runqAt(j-1))
	}
	s.runq[s.rhead] = th
}

// Spawn creates a thread running fn and schedules it at the tail of the
// run queue — the parent's lane's queue when parent is non-nil (children
// inherit their parent's lane), the receiver's otherwise. Spawn is itself
// a scheduled operation when called from a scheduled thread (parent); the
// root call (from ordinary Go code, parent nil-turn) appends directly.
// fn's panics from Kill are absorbed.
func (s *Scheduler) Spawn(parent *Thread, name string, fn func(*Thread)) *Thread {
	if parent != nil {
		// The child inherits the parent's lane: the insertion happens while
		// the parent holds its own lane's token, so the child's run-queue
		// position is a scheduled operation of that lane — deterministic.
		// (Inserting into any OTHER lane's queue from here would race that
		// lane's rotation; that is why cross-lane spawns go through
		// SpawnLane's bootstrap-only path instead.)
		parent.GetTurn()
		parent.Admit()
		t := parent.s.spawn(name, fn, false)
		parent.PutTurn()
		return t
	}
	return s.spawn(name, fn, false)
}

func (s *Scheduler) spawn(name string, fn func(*Thread), isIdle bool) *Thread {
	s.mu.Lock()
	if s.killedA.Load() {
		s.mu.Unlock()
		return nil
	}
	wasEmpty := s.rlen == 0
	t := s.newThreadLocked(name, isIdle)
	s.mu.Unlock()
	if wasEmpty {
		s.grant(t)
	}
	s.launch(t, fn)
	return t
}

// newThreadLocked creates a thread and queues it at the run-queue tail.
// Caller holds s.mu.
func (s *Scheduler) newThreadLocked(name string, isIdle bool) *Thread {
	// Thread ids are striped by lane (id = perLaneSeq*stride + laneID):
	// deterministic per lane, globally unique, and — with stride 1 on a
	// single-lane scheduler — identical to the pre-lane creation order.
	t := &Thread{s: s, id: s.nextID*s.idStride + s.laneID, name: name,
		wake: make(chan struct{}, 1), isIdle: isIdle}
	s.nextID++
	if !isIdle {
		s.spawned++
		s.spawnedA.Store(s.spawned)
	}
	s.runqPushBackLocked(t)
	return t
}

// launch runs fn on t's goroutine and exits t when fn returns.
func (s *Scheduler) launch(t *Thread, fn func(*Thread)) {
	wg := &s.wg
	if s.group != nil {
		wg = &s.group.wg // one Join covers every lane
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					panic(r)
				}
			}
		}()
		fn(t)
		t.Exit()
	}()
}

// tokenSpin bounds the pre-park spin in GetTurn: long enough to catch a
// grant from a holder mid-rotation (a few hundred ns away), short enough
// that a thread with no imminent grant parks quickly.
const tokenSpin = 128

// spinnable gates the pre-park spin: on a single-P runtime the granter
// cannot make progress while we spin, so park immediately.
var spinnable = runtime.GOMAXPROCS(0) > 1

// GetTurn blocks until t holds the global token. If the token has already
// been handed to t, it returns after a single atomic exchange; otherwise it
// spins briefly for an imminent grant and then parks on the wake channel.
func (t *Thread) GetTurn() {
	s := t.s
	if t.selfTok {
		t.selfTok = false
		if s.killedA.Load() {
			panic(killedPanic{})
		}
		return
	}
	if t.tok.Load() != 0 {
		t.tok.Store(0)
		if s.killedA.Load() {
			panic(killedPanic{})
		}
		return
	}
	if s.killedA.Load() {
		panic(killedPanic{})
	}
	if spinnable {
		for i := 0; i < tokenSpin; i++ {
			if t.tok.Load() != 0 {
				t.tok.Store(0)
				if s.killedA.Load() {
					panic(killedPanic{})
				}
				return
			}
			if i&15 == 15 {
				runtime.Gosched()
			}
		}
	}
	// Park path. Timed only here, so the handoff fast path costs nothing
	// with instrumentation off or on.
	var waitStart time.Time
	if s.turnWait != nil && !t.isIdle {
		waitStart = time.Now()
	}
	t.parked.Store(1)
	for t.tok.Load() == 0 {
		if s.killedA.Load() {
			t.parked.Store(0)
			panic(killedPanic{})
		}
		select {
		case <-t.wake:
		case <-s.killCh:
		}
	}
	t.parked.Store(0)
	t.tok.Store(0)
	if s.killedA.Load() {
		panic(killedPanic{})
	}
	if !waitStart.IsZero() {
		s.turnWait.Since(waitStart)
	}
}

// Admit invokes the CRANE gate, if any. Wrappers call it right after
// GetTurn (Fig. 9 line 3).
func (t *Thread) Admit() {
	if g := t.s.gate; g != nil {
		g.CheckAdmit(t)
	}
}

// PutTurn completes a scheduled operation: ticks the logical clock,
// releases expired soft barriers, drains the reentry queue, rotates the
// caller to the tail, and hands the token to the new head.
func (t *Thread) PutTurn() {
	s := t.s
	s.mu.Lock()
	if s.killedA.Load() {
		s.mu.Unlock()
		panic(killedPanic{})
	}
	if s.rlen == 0 || s.runq[s.rhead] != t {
		s.mu.Unlock()
		panic(fmt.Sprintf("dmt: PutTurn by non-head thread %d (%s)", t.id, t.name))
	}
	s.tickLocked(t, 'P')
	s.drainReentryLocked()
	s.releaseExpiredBarriersLocked()
	s.runqRotateLocked()
	s.replayReorderLocked()
	s.tokenPasses++
	head := s.runq[s.rhead]
	if head == t {
		// Sole runnable thread: the token comes straight back. A plain
		// flag only ever touched by t itself replaces the atomic grant.
		t.selfTok = true
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.grant(head)
}

// tickLocked advances the logical clock and folds (thread, op) into the
// schedule hash, which tests use to assert cross-run determinism. The idle
// thread's ticks are excluded: in plain-Parrot mode its solo rotations are
// timing-dependent (which is harmless — nothing runnable can observe them),
// while application threads' operations are always in deterministic
// rotation order.
//
// Only the clock mirror is published per tick (ClockFast must be exact —
// the seq consumption hook and observers stamp events with it). The other
// mirrors are refreshed by pubLocked at schedule boundaries and every 32nd
// tick: each atomic store is a full fence on amd64, and three of them per
// token pass was the single largest cost of the handoff fast path.
func (s *Scheduler) tickLocked(t *Thread, op byte) {
	s.clock++
	s.clockA.Store(s.clock)
	s.recordLocked(t, op)
	s.replayAdvanceLocked(t, op)
	if t.isIdle {
		s.pubLocked()
		return
	}
	t.clock = s.clock
	if s.cross != nil {
		s.appClock++
		s.appClockA.Store(s.appClock)
	}
	h := s.schedHash
	h ^= uint64(t.id)
	h *= 1099511628211
	h ^= uint64(op)
	h *= 1099511628211
	s.schedHash = h
	if s.flight != nil {
		s.flight.Emit(flight.EvTick, s.clock, flight.PosUnchanged, uint64(t.id), uint64(op))
	}
	if s.clock&31 == 0 {
		s.pubLocked()
	}
}

// pubLocked refreshes the lock-free counter mirrors from the plain fields.
// Called with s.mu held: on every idle-thread tick (so a quiet scheduler's
// metrics are always current), every 32nd tick of a busy one, and at every
// boundary after which a thread stops producing ticks (WaitOn, Exit,
// BlockingEnter, Kill). A reader that observes a thread parked therefore
// observes every operation that parked it; mid-run gauge scrapes may lag by
// a bounded handful of ops, which metrics tolerate by design.
func (s *Scheduler) pubLocked() {
	s.schedHashA.Store(s.schedHash)
	s.tokenPassesA.Store(s.tokenPasses)
	s.waitsA.Store(s.waits)
	s.signalsA.Store(s.signals)
}

// WaitOn moves the caller (which must hold the token) to the wait queue of
// key, wakes the next head, and blocks until another thread signals the key
// — at which point the caller has been re-inserted near the queue head and
// this call returns with the token held again.
func (t *Thread) WaitOn(key any) {
	s := t.s
	s.mu.Lock()
	if s.killedA.Load() {
		s.mu.Unlock()
		panic(killedPanic{})
	}
	if s.rlen == 0 || s.runq[s.rhead] != t {
		s.mu.Unlock()
		panic(fmt.Sprintf("dmt: WaitOn by non-head thread %d (%s)", t.id, t.name))
	}
	s.waits++
	s.tickLocked(t, 'W')
	wk := s.keyOfLocked(key)
	if s.flight != nil {
		s.flight.Emit(flight.EvWait, s.clock, flight.PosUnchanged,
			uint64(t.id)<<8|uint64(wk.tag), wk.v)
	}
	s.waitPushLocked(wk, t)
	s.drainReentryLocked()
	// A barrier expiring on this very tick may pop t right back out of the
	// wait queue and re-insert it after the head — the head being t itself,
	// still at the front until the removal below. The ring then transiently
	// holds t twice and the front removal keeps the re-inserted copy,
	// exactly as the slice implementation did.
	s.releaseExpiredBarriersLocked()
	s.runqPopFrontLocked()
	s.replayReorderLocked()
	s.tokenPasses++
	s.pubLocked() // t stops ticking until signaled: publish its last op
	var head *Thread
	if s.rlen > 0 {
		head = s.runq[s.rhead]
	}
	s.mu.Unlock()
	if head != nil {
		s.grant(head)
	}
	t.GetTurn() // blocks until signaled back in and granted
}

// SignalKey wakes the first waiter on key, inserting it right after the
// caller in the run queue (so it becomes the head once the caller rotates,
// matching "when a thread returns from wait() it becomes the head").
// It reports whether a waiter was woken. Caller must hold the token.
func (t *Thread) SignalKey(key any) bool {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.signalOneLocked(key)
}

func (s *Scheduler) signalOneLocked(key any) bool {
	wk := s.keyOfLocked(key)
	w := s.waitPopLocked(wk)
	if w == nil {
		return false
	}
	s.runqInsertLocked(w, 1)
	s.signals++
	if s.flight != nil {
		s.flight.Emit(flight.EvSignal, s.clock, flight.PosUnchanged,
			uint64(w.id)<<8|uint64(wk.tag), wk.v)
	}
	return true
}

// BroadcastKey wakes every waiter on key in FIFO order. Caller must hold
// the token. Returns the number of threads woken.
func (t *Thread) BroadcastKey(key any) int {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	wk := s.keyOfLocked(key)
	for w := s.waitTakeLocked(wk); w != nil; {
		next := w.wnext
		w.wnext = nil
		s.runqInsertLocked(w, 1+n)
		if s.flight != nil {
			s.flight.Emit(flight.EvSignal, s.clock, flight.PosUnchanged,
				uint64(w.id)<<8|uint64(wk.tag), wk.v)
		}
		n++
		w = next
	}
	if n > 0 {
		s.signals += uint64(n)
	}
	return n
}

// HasWaiter reports whether any thread waits on key. Caller must hold the
// token (used by the CRANE gate to decide whether to deliver a signal).
func (t *Thread) HasWaiter(key any) bool {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waitHasLocked(s.keyOfLocked(key))
}

// Exit is the scheduled operation that removes the caller from the
// scheduler and wakes joiners. Spawn calls it automatically when fn
// returns; threads must not use t afterwards.
func (t *Thread) Exit() {
	t.GetTurn()
	t.observe(EvThreadExit, nil)
	s := t.s
	s.mu.Lock()
	if s.rlen == 0 || s.runq[s.rhead] != t {
		s.mu.Unlock()
		panic("dmt: Exit by non-head thread")
	}
	s.tickLocked(t, 'X')
	t.done = true
	// Wake joiners.
	n := 0
	for w := s.waitTakeLocked(waitKey{tagJoin, uint64(t.id)}); w != nil; {
		next := w.wnext
		w.wnext = nil
		s.runqInsertLocked(w, 1+n)
		n++
		w = next
	}
	if n > 0 {
		s.signals += uint64(n)
	}
	s.drainReentryLocked()
	s.releaseExpiredBarriersLocked()
	s.runqPopFrontLocked()
	s.replayReorderLocked()
	s.pubLocked() // t is gone: its counters must be visible to Stats readers
	var head *Thread
	if s.rlen > 0 {
		head = s.runq[s.rhead]
	}
	s.mu.Unlock()
	if head != nil {
		s.grant(head)
	}
}

type joinKey struct{ t *Thread }

// Join blocks the caller until target exits. A scheduled operation. Join
// does not span lanes: a cross-lane join would couple two lanes' schedules
// through a wait queue; apps join threads from their own lane (or simply
// let per-lane pools run until Kill).
func (t *Thread) Join(target *Thread) {
	if target.s != t.s {
		panic(fmt.Sprintf("dmt: cross-lane Join (thread %q in lane %d joining %q in lane %d)",
			t.name, t.s.laneID, target.name, target.s.laneID))
	}
	t.GetTurn()
	t.Admit()
	s := t.s
	s.mu.Lock()
	done := target.done
	s.mu.Unlock()
	if !done {
		t.WaitOn(joinKey{target})
	}
	t.PutTurn()
}

// BlockingEnter prepares a *nondeterministic* real blocking call (plain
// Parrot's socket path, §3.1): the caller leaves the run queue and the
// token moves on. Pair with BlockingExit after the real call returns.
func (t *Thread) BlockingEnter() {
	t.GetTurn()
	t.Admit()
	s := t.s
	s.mu.Lock()
	if s.killedA.Load() {
		s.mu.Unlock()
		panic(killedPanic{})
	}
	s.tickLocked(t, 'B')
	s.drainReentryLocked()
	s.releaseExpiredBarriersLocked()
	s.runqPopFrontLocked()
	s.replayReorderLocked()
	s.tokenPasses++
	s.pubLocked() // t leaves the scheduled world: publish its last op
	var head *Thread
	if s.rlen > 0 {
		head = s.runq[s.rhead]
	}
	s.mu.Unlock()
	if head != nil {
		s.grant(head)
	}
}

// BlockingExit re-enters the scheduler after a real blocking call: the
// caller joins the reentry queue (nondeterministic order, by design — this
// is precisely the nondeterminism CRANE's gate removes) and blocks until a
// token holder drains it into the run queue and the token reaches it.
func (t *Thread) BlockingExit() {
	s := t.s
	s.mu.Lock()
	if s.killedA.Load() {
		s.mu.Unlock()
		panic(killedPanic{})
	}
	t.wnext = nil
	if s.reentryTail == nil {
		s.reentryHead, s.reentryTail = t, t
	} else {
		s.reentryTail.wnext = t
		s.reentryTail = t
	}
	s.reentryLenA.Add(1)
	s.mu.Unlock()
	t.GetTurn()
	t.PutTurn()
}

func (s *Scheduler) drainReentryLocked() {
	if s.reentryHead == nil {
		return
	}
	for w := s.reentryHead; w != nil; {
		next := w.wnext
		w.wnext = nil
		s.runqPushBackLocked(w)
		w = next
	}
	s.reentryHead, s.reentryTail = nil, nil
	s.reentryLenA.Store(0)
}

// idleLoop keeps the run queue non-empty and the clock ticking (§3.1).
// With a CRANE gate installed, Admit is where the idle thread blocks on an
// empty Paxos sequence, requests time bubbles, exhausts bubble clocks, and
// admits socket calls — the paper's modified idle thread (§3.2).
func (s *Scheduler) idleLoop(t *Thread) {
	sleep := s.IdleSleep
	if sleep == 0 {
		sleep = 50 * time.Microsecond
	}
	busySpins := 0
	for {
		t.GetTurn()
		t.Admit()
		if s.killedA.Load() {
			panic(killedPanic{})
		}
		alone := s.runqLenA.Load() == 1 && s.reentryLenA.Load() == 0
		busy := s.gate != nil && s.gateBusy()
		t.PutTurn()
		if alone && !busy {
			busySpins = 0
			// Nothing to exhaust and nobody runnable: back off so an
			// idle server does not burn a core. Clock ticks here are
			// unobservable: no runnable thread can interleave, and a
			// thread reads the clock it stamped at its own last turn
			// (LaneClock), not the live one. Plain
			// Sleep, not time.After: the latter allocates a timer and a
			// channel per rotation, which at this frequency becomes a
			// timer-heap and GC storm that starves everything else.
			time.Sleep(sleep)
		} else {
			// Busy rotation (application threads runnable, or entries
			// pending behind the gate): yield so they and the consensus
			// stack get CPU even on low-core machines, with a periodic
			// real sleep so a sustained rotation cannot starve timer
			// goroutines.
			busySpins++
			if busySpins%64 == 0 {
				time.Sleep(10 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
	}
}

// BusyGate is implemented by gates that can indicate pending work (e.g. a
// time bubble being exhausted) so the idle thread spins instead of
// sleeping.
type BusyGate interface{ Busy() bool }

// LaneBusyGate refines BusyGate for multi-lane schedulers: lane L's idle
// thread asks about lane L's pending work only, so one lane exhausting a
// bubble does not keep every other lane's idle thread spinning.
type LaneBusyGate interface{ BusyLane(lane int) bool }

// LaneStampGate must be implemented by any gate installed on a multi-lane
// scheduler. StampLane returns lane L's cross-lane merge stamp: a monotone
// count of the lane's position in its committed input stream (CRANE's gate
// reports bubble clocks plus consumed client calls — see crane's
// gate.StampLane for why that is the only replica-deterministic choice).
// It is read lock-free by other lanes while they poll for their merge turn.
type LaneStampGate interface{ StampLane(lane int) uint64 }

func (s *Scheduler) gateBusy() bool {
	if b, ok := s.gate.(LaneBusyGate); ok {
		return b.BusyLane(s.laneID)
	}
	if b, ok := s.gate.(BusyGate); ok {
		return b.Busy()
	}
	return false
}

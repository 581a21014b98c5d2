package dmt

// This file implements Parrot's synchronization wrappers (paper Fig. 9):
// mutexes, condition variables, reader-writer locks, and the soft-barrier
// performance hint (§7.4). Every wrapper follows the same shape —
//
//	t.GetTurn(); t.Admit(); <manipulate state, possibly WaitOn>; t.PutTurn()
//
// — so each completed operation is exactly one logical-clock tick, and the
// CRANE gate (Admit) runs at every synchronization, which is what lets
// time-bubble clocks be consumed at a deterministic rate.
//
// All wrapper state (locked flags, reader counts, barrier arrival lists) is
// only ever touched by the token holder, so no additional locking is
// needed: token hand-off through the scheduler mutex provides the
// happens-before edges.

// Mutex is a deterministic mutual-exclusion lock (pthread_mutex_t).
type Mutex struct {
	locked bool
	owner  *Thread
	lane   int32  // 1-based lane binding (lanes.go); 0 = unbound → cross-lane when lanes > 1
	wkey   uint64 // lazily assigned wait-table id (waitq.go); 0 = unassigned
}

// acquire takes m if it is free and reports whether it did. It is the one
// acquire body: the in-lane path retries it after each wait, a cross-lane
// acquire retries it at each merge position (crossOp).
func (m *Mutex) acquire(t *Thread) bool {
	if m.locked {
		return false
	}
	m.locked = true
	m.owner = t
	return true
}

// release frees m and reports whether it was held: the one release body.
func (m *Mutex) release() bool {
	if !m.locked {
		return false
	}
	m.locked = false
	m.owner = nil
	return true
}

// Lock acquires m, blocking deterministically (Fig. 9's try-lock loop:
// never block while holding the token).
func (t *Thread) Lock(m *Mutex) {
	if t.crossLane(m.lane, "Mutex") {
		for !t.crossOp(func() bool { return m.acquire(t) }) {
		}
		return
	}
	t.GetTurn()
	t.Admit()
	for !m.acquire(t) {
		t.WaitOn(m)
	}
	t.PutTurn()
}

// TryLock attempts to acquire m without blocking; it reports success.
func (t *Thread) TryLock(m *Mutex) bool {
	if t.crossLane(m.lane, "Mutex") {
		return t.crossOp(func() bool { return m.acquire(t) })
	}
	t.GetTurn()
	t.Admit()
	ok := m.acquire(t)
	t.PutTurn()
	return ok
}

// Unlock releases m and wakes the first deterministic waiter.
func (t *Thread) Unlock(m *Mutex) {
	if t.crossLane(m.lane, "Mutex") {
		if !t.crossOp(m.release) {
			panic("dmt: Unlock of unlocked Mutex")
		}
		return
	}
	t.GetTurn()
	t.Admit()
	if !m.release() {
		t.PutTurn()
		panic("dmt: Unlock of unlocked Mutex")
	}
	t.SignalKey(m)
	t.PutTurn()
}

// Cond is a deterministic condition variable (pthread_cond_t). The
// associated mutex is passed to Wait, as in pthreads.
//
// The non-zero size is load-bearing independently of the wait-table id:
// Go gives every zero-size allocation the same address, so an empty struct
// here would make distinct heap-allocated condition variables compare
// equal and alias onto one wait queue.
type Cond struct {
	lane int32  // 1-based lane binding (lanes.go); 0 = unbound
	wkey uint64 // lazily assigned wait-table id (waitq.go); 0 = unassigned
}

// CondWait atomically releases m and blocks on c; on wake-up it
// re-acquires m before returning (pthread_cond_wait).
//
// Condition variables do not span lanes: wait-table keys are per-lane, so
// a cond used from two lanes would alias onto unrelated wait queues. When
// lanes exist, both the cond and its mutex must be lane-bound (papi's
// NewCond binds to the creating thread's lane by default).
func (t *Thread) CondWait(c *Cond, m *Mutex) {
	if t.s.cross != nil {
		if c.lane == 0 || m.lane == 0 {
			panic("dmt: CondWait requires lane-bound Cond and Mutex when lanes > 1")
		}
		t.assertLane(c.lane, "Cond")
		t.assertLane(m.lane, "Mutex")
	}
	t.GetTurn()
	t.Admit()
	if !m.locked || m.owner != t {
		t.PutTurn()
		panic("dmt: CondWait without holding the mutex")
	}
	m.release()
	t.SignalKey(m)
	t.WaitOn(c)
	for !m.acquire(t) {
		t.WaitOn(m)
	}
	t.PutTurn()
}

// CondSignal wakes one waiter on c (pthread_cond_signal).
func (t *Thread) CondSignal(c *Cond) {
	if t.s.cross != nil {
		t.assertLane(c.lane, "Cond")
	}
	t.GetTurn()
	t.Admit()
	t.SignalKey(c)
	t.PutTurn()
}

// CondBroadcast wakes all waiters on c (pthread_cond_broadcast).
func (t *Thread) CondBroadcast(c *Cond) {
	if t.s.cross != nil {
		t.assertLane(c.lane, "Cond")
	}
	t.GetTurn()
	t.Admit()
	t.BroadcastKey(c)
	t.PutTurn()
}

// RWMutex is a deterministic reader-writer lock (pthread_rwlock_t),
// writer-preferring like glibc's default is not guaranteed; this one is
// arrival-ordered through the deterministic wait queue.
type RWMutex struct {
	readers int
	writer  bool
	lane    int32  // 1-based lane binding (lanes.go); 0 = unbound → cross-lane when lanes > 1
	wkey    uint64 // lazily assigned wait-table id (waitq.go); 0 = unassigned
}

// rlock, runlock, wlock and wunlock are the RWMutex's one acquire and
// release bodies, shared by the in-lane and cross-lane paths like Mutex's:
// each reports whether it took effect.
func (rw *RWMutex) rlock() bool {
	if rw.writer {
		return false
	}
	rw.readers++
	return true
}

func (rw *RWMutex) runlock() bool {
	if rw.readers <= 0 {
		return false
	}
	rw.readers--
	return true
}

func (rw *RWMutex) wlock() bool {
	if rw.writer || rw.readers > 0 {
		return false
	}
	rw.writer = true
	return true
}

func (rw *RWMutex) wunlock() bool {
	if !rw.writer {
		return false
	}
	rw.writer = false
	return true
}

// RLock acquires a read lock.
func (t *Thread) RLock(rw *RWMutex) {
	if t.crossLane(rw.lane, "RWMutex") {
		for !t.crossOp(rw.rlock) {
		}
		return
	}
	t.GetTurn()
	t.Admit()
	for !rw.rlock() {
		t.WaitOn(rw)
	}
	t.PutTurn()
}

// RUnlock releases a read lock.
func (t *Thread) RUnlock(rw *RWMutex) {
	if t.crossLane(rw.lane, "RWMutex") {
		if !t.crossOp(rw.runlock) {
			panic("dmt: RUnlock without read lock")
		}
		return
	}
	t.GetTurn()
	t.Admit()
	if !rw.runlock() {
		t.PutTurn()
		panic("dmt: RUnlock without read lock")
	}
	if rw.readers == 0 {
		t.BroadcastKey(rw)
	}
	t.PutTurn()
}

// WLock acquires the write lock.
func (t *Thread) WLock(rw *RWMutex) {
	if t.crossLane(rw.lane, "RWMutex") {
		for !t.crossOp(rw.wlock) {
		}
		return
	}
	t.GetTurn()
	t.Admit()
	for !rw.wlock() {
		t.WaitOn(rw)
	}
	t.PutTurn()
}

// WUnlock releases the write lock and wakes all waiters (they re-check,
// so a mix of pending readers and writers resolves deterministically).
func (t *Thread) WUnlock(rw *RWMutex) {
	if t.crossLane(rw.lane, "RWMutex") {
		if !t.crossOp(rw.wunlock) {
			panic("dmt: WUnlock without write lock")
		}
		return
	}
	t.GetTurn()
	t.Admit()
	if !rw.wunlock() {
		t.PutTurn()
		panic("dmt: WUnlock without write lock")
	}
	t.BroadcastKey(rw)
	t.PutTurn()
}

// SoftBarrier is Parrot's performance hint (§7.4): it lines up N threads'
// computations so the round-robin schedule runs them in parallel instead
// of accumulating token-parking stalls. It is "soft": arrival beyond a
// deterministic timeout (measured in logical clock ticks, so it is the
// same on every replica) releases the group anyway, and the hint can be
// ignored entirely without affecting program logic.
type SoftBarrier struct {
	n        int
	timeout  uint64 // ticks
	arrived  int
	deadline uint64 // clock value at which the current group releases
	lane     int32  // 1-based lane binding, set by the first arriver; 0 = unbound
	wkey     uint64 // lazily assigned wait-table id (waitq.go); 0 = unassigned
}

// NewSoftBarrier creates a soft barrier for groups of n threads with the
// given timeout in logical clock ticks.
func NewSoftBarrier(n int, timeoutTicks uint64) *SoftBarrier {
	if n < 1 {
		n = 1
	}
	if timeoutTicks == 0 {
		timeoutTicks = 1
	}
	return &SoftBarrier{n: n, timeout: timeoutTicks}
}

// SoftBarrierArrive announces that the calling thread is about to start a
// lined-up computation. It blocks until n threads arrive or the barrier
// times out deterministically.
func (t *Thread) SoftBarrierArrive(sb *SoftBarrier) {
	t.GetTurn()
	t.Admit()
	s := t.s
	if s.cross != nil {
		// A barrier lines up threads of one lane; it binds to its first
		// arriver's lane (apps register one barrier instance per lane).
		if sb.lane == 0 {
			sb.lane = int32(s.laneID) + 1
		} else {
			t.assertLane(sb.lane, "SoftBarrier")
		}
	}
	s.mu.Lock()
	if sb.arrived == 0 {
		sb.deadline = s.clock + sb.timeout
		// Register for tick-driven timeout release.
		s.barriers = append(s.barriers, sb)
		s.activeBarriersA.Add(1)
	}
	sb.arrived++
	full := sb.arrived >= sb.n
	s.mu.Unlock()
	if full {
		s.mu.Lock()
		s.resetBarrierLocked(sb)
		s.mu.Unlock()
		t.BroadcastKey(sb)
		t.PutTurn()
		return
	}
	// Wait until the group fills or the deadline tick passes.
	t.WaitOn(sb)
	t.PutTurn()
}

// resetBarrierLocked clears the barrier for its next group and removes it
// from the active list. Caller holds s.mu.
func (s *Scheduler) resetBarrierLocked(sb *SoftBarrier) {
	sb.arrived = 0
	for i, b := range s.barriers {
		if b == sb {
			s.barriers = append(s.barriers[:i], s.barriers[i+1:]...)
			s.activeBarriersA.Add(-1)
			break
		}
	}
}

// releaseExpiredBarriersLocked releases any barrier whose deadline tick
// has passed. Called by the token holder on every tick, so the release
// point in the global schedule is deterministic. Caller holds s.mu.
//
// Release runs inside the current op's critical section, before the ticking
// thread leaves the head slot — so when the ticking op is itself a WaitOn
// on the expiring barrier, the waiter being released is the current head
// and runqInsertLocked transiently duplicates it (see WaitOn).
func (s *Scheduler) releaseExpiredBarriersLocked() {
	if len(s.barriers) == 0 {
		return
	}
	for i := 0; i < len(s.barriers); {
		sb := s.barriers[i]
		if sb.arrived > 0 && s.clock >= sb.deadline {
			sb.arrived = 0
			s.barriers = append(s.barriers[:i], s.barriers[i+1:]...)
			s.activeBarriersA.Add(-1)
			n := 0
			for w := s.waitTakeLocked(s.keyOfLocked(sb)); w != nil; {
				next := w.wnext
				w.wnext = nil
				s.runqInsertLocked(w, 1+n)
				n++
				w = next
			}
			if n > 0 {
				s.signals += uint64(n)
				s.signalsA.Store(s.signals)
			}
			continue
		}
		i++
	}
}

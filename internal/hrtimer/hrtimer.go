// Package hrtimer provides one-shot deadlines that fire on time whether the
// process is idle or busy.
//
// A Go runtime timer is only as precise as the thread that happens to be
// watching it, and the runtime has two regimes:
//
//   - Idle: once every P is idle, the last thread parks in epoll_wait with the
//     next timer's delay as its timeout, and epoll_wait's timeout is whole
//     milliseconds, rounded up. A 100 µs runtime timer in an otherwise idle
//     process therefore fires after ~1.1 ms.
//   - Busy: while some P has work, every scheduling round checks the runtime
//     timers, so they fire within microseconds. The netpoller, however, is
//     polled only when a P runs out of goroutines: with a few goroutines
//     spinning on runtime.Gosched (the DMT's busy rotation), a descriptor that
//     became readable is noticed ~10 ms late.
//
// Each regime is on time for one of the two clocks, so the service arms both.
// On Linux its deadlines are kept in a timerfd that one goroutine reads through
// the runtime's own netpoller: the kernel's hrtimer makes the descriptor
// readable, which ends epoll_wait at once, so an idle process is woken on time
// without anybody spinning. Beside it a runtime timer, the backstop, is armed
// for the same deadline; in a busy process it is the one that fires on time.
// Whichever fires first expires the heap and re-arms both for the next
// deadline; the other then finds nothing due. Elsewhere — and on Linux when no
// timerfd can be had — the source is a runtime timer, alone, with the
// runtime's resolution when idle.
//
// There is one service per process (one descriptor, one goroutine, one
// backstop timer, a min-heap of pending deadlines), started by the first Reset
// and never stopped: idle, it is a goroutine parked in the netpoller.
package hrtimer

import (
	"container/heap"
	"sync"
	"time"
)

// Floor is the shortest duration a Timer is armed for; Reset rounds anything
// shorter up to it (the same floor simnet puts under its delivery timers).
// A caller that re-arms in a loop can therefore never drive the service
// faster than 50 kHz, whatever duration it asks for.
const Floor = 20 * time.Microsecond

// Timer is a one-shot, resettable deadline. It is armed by Reset and fires
// by delivering the deadline it was armed for on C. A Timer is owned by one
// goroutine: Reset, Stop and the receive from C must not run concurrently
// with each other (the service firing concurrently with any of them is
// fine).
type Timer struct {
	// C receives the deadline when it passes; subtracting it from the
	// receive time gives the lateness. It has one slot, and Stop and Reset
	// empty it, so a value received after either of them returned always
	// belongs to the latest Reset.
	C <-chan time.Time

	s    *service
	c    chan time.Time
	when time.Time // guarded by s.mu
	idx  int       // position in s.heap, -1 when not pending; guarded by s.mu
}

// New returns an unarmed Timer.
func New() *Timer { return svc.newTimer(make(chan time.Time, 1)) }

func (s *service) newTimer(c chan time.Time) *Timer {
	return &Timer{C: c, s: s, c: c, idx: -1}
}

// Reset arms t to fire d from now (at least Floor), dropping whatever it
// was armed for before and any fire not yet received.
func (t *Timer) Reset(d time.Duration) {
	when := time.Now().Add(max(d, Floor))
	s := t.s
	s.start.Do(func() { s.run(newSource()) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disarm(t)
	t.when = when
	heap.Push(&s.heap, t)
	s.rearm()
}

// Stop disarms t and drops a fire not yet received. It reports whether the
// deadline was still pending. Stopping an unarmed or fired Timer is a no-op.
func (t *Timer) Stop() bool {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := s.disarm(t)
	s.rearm()
	return pending
}

// Pending returns how many deadlines the process has armed and not yet fired
// or stopped. It exists for tests that assert a wait left nothing behind.
func Pending() int { return svc.pending() }

func (s *service) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// source is what the service sleeps on: the timerfd, or a runtime timer.
type source interface {
	// arm makes the next wait return once d has passed (d > 0), replacing
	// whatever was armed before; disarm cancels it.
	arm(d time.Duration)
	disarm()
	// wait blocks until an armed duration has passed. It may also return
	// early (the service rechecks the clock); an error means the source is
	// unusable.
	wait() error
}

// svc is the process's one service, like the runtime's own timer heap.
var svc service

type service struct {
	start sync.Once

	mu    sync.Mutex
	heap  timerHeap
	src   source
	armed time.Time // the deadline src and backstop are armed for; zero when disarmed
	// backstop is the runtime timer armed beside a timerfd source: the one
	// that fires on time while the process is busy (see the package doc).
	// Nil when the source is a runtime timer itself.
	backstop *time.Timer
}

// run starts the service goroutine on src. It never exits: the service lives
// as long as the process, as the runtime's timers do.
func (s *service) run(src source) {
	s.src = src
	if _, rt := src.(*runtimeSource); !rt {
		s.backstop = time.AfterFunc(time.Hour, func() {
			s.mu.Lock()
			s.expire()
			s.mu.Unlock()
		})
		s.backstop.Stop()
	}
	go func() {
		for {
			err := src.wait()
			s.mu.Lock()
			if err != nil {
				// The descriptor could not be polled after all; carry on at
				// runtime resolution rather than lose deadlines. The new
				// source is unarmed, and a runtime timer needs no backstop.
				src = newRuntimeSource()
				s.src = src
				if s.backstop != nil {
					s.backstop.Stop()
					s.backstop = nil
				}
				s.armed = time.Time{}
			}
			s.expire()
			s.mu.Unlock()
		}
	}()
}

// disarm takes t out of the heap and empties its channel. Called with s.mu
// held, which is what makes it exclusive with expire's send.
func (s *service) disarm(t *Timer) bool {
	pending := t.idx >= 0
	if pending {
		heap.Remove(&s.heap, t.idx)
	}
	select {
	case <-t.c:
	default:
	}
	return pending
}

// expire fires every deadline that has passed, earliest first, and re-arms
// the source and the backstop for the next one. Called with s.mu held, from
// whichever of the two woke first; the other one comes in after that re-arm,
// finds nothing due and the clocks armed for the next deadline already (as
// does an early or stale return of wait), and leaves them alone.
func (s *service) expire() {
	now := time.Now()
	if !now.Before(s.armed) {
		s.armed = time.Time{} // the deadline the clocks were armed for has passed
	}
	for len(s.heap) > 0 && !s.heap[0].when.After(now) {
		t := heap.Pop(&s.heap).(*Timer)
		select {
		case t.c <- t.when:
		default: // cannot happen: arming emptied the slot
		}
	}
	s.rearm()
}

// rearm points the source and the backstop at the earliest pending deadline,
// touching them only when that deadline changed. Called with s.mu held.
func (s *service) rearm() {
	if len(s.heap) == 0 {
		if !s.armed.IsZero() {
			s.src.disarm()
			if s.backstop != nil {
				s.backstop.Stop()
			}
			s.armed = time.Time{}
		}
		return
	}
	if next := s.heap[0].when; !next.Equal(s.armed) {
		// A deadline already past still has to go through a clock: only
		// expire fires, and never under a Reset or Stop.
		d := max(time.Until(next), time.Nanosecond)
		s.src.arm(d)
		if s.backstop != nil {
			s.backstop.Reset(d)
		}
		s.armed = next
	}
}

// runtimeSource is the fallback source: a runtime timer. A stale value left
// in its channel by a Reset racing the fire is one early return from wait.
type runtimeSource struct{ t *time.Timer }

func newRuntimeSource() *runtimeSource {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &runtimeSource{t}
}

func (r *runtimeSource) arm(d time.Duration) { r.t.Reset(d) }
func (r *runtimeSource) disarm()             { r.t.Stop() }
func (r *runtimeSource) wait() error         { <-r.t.C; return nil }

// timerHeap is a min-heap on when that keeps each Timer's index current.
type timerHeap []*Timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].when.Before(h[j].when) }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.idx = -1
	return t
}

// Package hrtimer provides one-shot deadlines that fire on time in a quiet
// process.
//
// A Go runtime timer is only as precise as the thread that happens to be
// watching it. While some P is busy, timers are checked on every scheduling
// round; once every P is idle, the last thread parks in epoll_wait with the
// next timer's delay as its timeout — and epoll_wait's timeout is whole
// milliseconds, rounded up. A 100 µs runtime timer in an otherwise idle
// process therefore fires after ~1.1 ms.
//
// On Linux this package keeps its deadlines in a timerfd that one goroutine
// reads through the runtime's own netpoller: the kernel's hrtimer makes the
// descriptor readable, which ends epoll_wait at once, so an idle process is
// woken on time without anybody spinning. Elsewhere — and on Linux when no
// timerfd can be had — the same service runs over a runtime timer, with the
// runtime's resolution.
//
// There is one service per process (one descriptor, one goroutine, a min-heap
// of pending deadlines), started by the first Reset and never stopped: idle,
// it is a goroutine parked in the netpoller.
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
	armed time.Time // the deadline src is armed for; zero when disarmed
}

// run starts the service goroutine on src. It never exits: the service lives
// as long as the process, as the runtime's timers do.
func (s *service) run(src source) {
	s.src = src
	go func() {
		for {
			err := src.wait()
			s.mu.Lock()
			if err != nil {
				// The descriptor could not be polled after all; carry on at
				// runtime resolution rather than lose deadlines.
				src = newRuntimeSource()
				s.src = src
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
// the source for the next one. Called with s.mu held.
func (s *service) expire() {
	s.armed = time.Time{} // the source has fired (or was replaced)
	now := time.Now()
	for len(s.heap) > 0 && !s.heap[0].when.After(now) {
		t := heap.Pop(&s.heap).(*Timer)
		select {
		case t.c <- t.when:
		default: // cannot happen: arming emptied the slot
		}
	}
	s.rearm()
}

// rearm points the source at the earliest pending deadline, touching it only
// when that deadline changed. Called with s.mu held.
func (s *service) rearm() {
	if len(s.heap) == 0 {
		if !s.armed.IsZero() {
			s.src.disarm()
			s.armed = time.Time{}
		}
		return
	}
	if next := s.heap[0].when; !next.Equal(s.armed) {
		// A deadline already past still has to go through the source: only
		// the service goroutine fires.
		s.src.arm(max(time.Until(next), time.Nanosecond))
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

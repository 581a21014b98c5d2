package hrtimer

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// services returns the services the suite runs against: the process's own
// (a timerfd on Linux) and a private one on the runtime-timer source, so the
// fallback is exercised on Linux too.
func services() map[string]*service {
	fallback := &service{}
	fallback.start.Do(func() { fallback.run(newRuntimeSource()) })
	return map[string]*service{"default": &svc, "runtime": fallback}
}

func eachService(t *testing.T, f func(t *testing.T, s *service)) {
	for name, s := range services() {
		t.Run(name, func(t *testing.T) { f(t, s) })
	}
}

func (s *service) timer() *Timer { return s.newTimer(make(chan time.Time, 1)) }

func mustFire(t *testing.T, tm *Timer, within time.Duration) time.Time {
	t.Helper()
	select {
	case due := <-tm.C:
		return due
	case <-time.After(within):
		t.Fatalf("timer did not fire within %v", within)
		return time.Time{}
	}
}

func mustNotFire(t *testing.T, tm *Timer, d time.Duration) {
	t.Helper()
	select {
	case due := <-tm.C:
		t.Fatalf("timer fired (deadline %v ago)", time.Since(due))
	case <-time.After(d):
	}
}

func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// TestHRTimerOnTime is the reason the package exists: in a process doing
// nothing else, a 100 µs deadline fires within a few hundred microseconds,
// where a runtime timer measured beside it takes epoll_wait's millisecond.
func TestHRTimerOnTime(t *testing.T) {
	const shots, d = 200, 100 * time.Microsecond
	tm := New()
	defer tm.Stop()
	late := make([]time.Duration, shots)
	control := make([]time.Duration, shots)
	rt := time.NewTimer(time.Hour)
	defer rt.Stop()
	for i := range late {
		tm.Reset(d)
		due := <-tm.C
		late[i] = time.Since(due)

		t0 := time.Now()
		rt.Reset(d)
		<-rt.C
		control[i] = time.Since(t0) - d
	}
	p50, ctl := median(late), median(control)
	t.Logf("lateness of a %v deadline, p50 of %d shots: hrtimer %v, runtime timer %v", d, shots, p50, ctl)
	svc.mu.Lock()
	_, fallback := svc.src.(*runtimeSource)
	svc.mu.Unlock()
	if fallback {
		return // not Linux, or no timerfd to be had: the runtime's resolution
	}
	if p50 >= 300*time.Microsecond {
		t.Errorf("p50 lateness %v, want under 300µs (runtime timer beside it: %v)", p50, ctl)
	}
}

func TestHRTimerFiresWithDeadline(t *testing.T) {
	eachService(t, func(t *testing.T, s *service) {
		tm := s.timer()
		t0 := time.Now()
		tm.Reset(2 * time.Millisecond)
		due := mustFire(t, tm, 5*time.Second)
		if got := due.Sub(t0); got < 2*time.Millisecond || got > 3*time.Millisecond {
			t.Errorf("delivered deadline is %v after Reset, want 2ms", got)
		}
		if time.Now().Before(due) {
			t.Errorf("fired %v before its deadline", time.Until(due))
		}
		if tm.Stop() {
			t.Error("Stop reported a fired timer as pending")
		}
		if n := s.pending(); n != 0 {
			t.Errorf("%d deadlines pending after the only timer fired", n)
		}
	})
}

func TestHRTimerFloor(t *testing.T) {
	tm := New()
	defer tm.Stop()
	t0 := time.Now()
	tm.Reset(time.Microsecond)
	if got := mustFire(t, tm, 5*time.Second).Sub(t0); got < Floor {
		t.Errorf("a 1µs Reset was armed for %v, want at least the %v floor", got, Floor)
	}
}

func TestHRTimerStopNeverFires(t *testing.T) {
	eachService(t, func(t *testing.T, s *service) {
		tm := s.timer()
		if tm.Stop() {
			t.Error("Stop of a never-armed timer reported pending")
		}
		for i := 0; i < 50; i++ {
			tm.Reset(500 * time.Microsecond)
			if !tm.Stop() {
				t.Fatal("Stop before the deadline reported not pending")
			}
		}
		mustNotFire(t, tm, 5*time.Millisecond)
		if n := s.pending(); n != 0 {
			t.Errorf("%d deadlines pending after Stop", n)
		}
		// A fire that was delivered but not received is dropped too.
		tm.Reset(100 * time.Microsecond)
		time.Sleep(5 * time.Millisecond)
		if tm.Stop() {
			t.Error("Stop after the fire reported pending")
		}
		mustNotFire(t, tm, time.Millisecond)
	})
}

func TestHRTimerResetEarlierAndLater(t *testing.T) {
	eachService(t, func(t *testing.T, s *service) {
		tm := s.timer()
		defer tm.Stop()

		// Later: the first deadline must not fire.
		tm.Reset(2 * time.Millisecond)
		t0 := time.Now()
		tm.Reset(30 * time.Millisecond)
		if got := mustFire(t, tm, 5*time.Second).Sub(t0); got < 30*time.Millisecond {
			t.Errorf("after Reset to 30ms the delivered deadline is %v away", got)
		}
		if el := time.Since(t0); el < 30*time.Millisecond {
			t.Errorf("fired after %v, before the later deadline", el)
		}

		// Earlier: the timer fires long before the first deadline.
		tm.Reset(time.Hour)
		t0 = time.Now()
		tm.Reset(time.Millisecond)
		mustFire(t, tm, 5*time.Second)
		if el := time.Since(t0); el > time.Second {
			t.Errorf("Reset to 1ms fired after %v", el)
		}

		// A Reset after an unreceived fire drops that fire: exactly one value
		// arrives, and it is the new deadline.
		tm.Reset(100 * time.Microsecond)
		time.Sleep(5 * time.Millisecond)
		t0 = time.Now()
		tm.Reset(10 * time.Millisecond)
		if due := mustFire(t, tm, 5*time.Second); due.Before(t0) {
			t.Error("received the fire of the deadline Reset replaced")
		}
		mustNotFire(t, tm, time.Millisecond)
	})
}

// TestHRTimerFireOrder: 1000 timers armed in shuffled order deliver on one
// shared channel in deadline order.
func TestHRTimerFireOrder(t *testing.T) {
	eachService(t, func(t *testing.T, s *service) {
		const n = 1000
		c := make(chan time.Time, n)
		rng := rand.New(rand.NewSource(1))
		for _, i := range rng.Perm(n) {
			s.newTimer(c).Reset(5*time.Millisecond + time.Duration(i)*30*time.Microsecond)
		}
		var prev time.Time
		for i := 0; i < n; i++ {
			select {
			case due := <-c:
				if due.Before(prev) {
					t.Fatalf("fire %d has deadline %v before its predecessor's", i, prev.Sub(due))
				}
				prev = due
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d timers fired", i, n)
			}
		}
		if n := s.pending(); n != 0 {
			t.Errorf("%d deadlines pending after every timer fired", n)
		}
	})
}

// TestHRTimerHeapEmptyAfterStop: stopping every timer, in an order unrelated
// to the deadlines, leaves nothing in the heap, and none of them fires.
func TestHRTimerHeapEmptyAfterStop(t *testing.T) {
	eachService(t, func(t *testing.T, s *service) {
		rng := rand.New(rand.NewSource(2))
		timers := make([]*Timer, 1000)
		for i := range timers {
			timers[i] = s.timer()
			timers[i].Reset(time.Second + time.Duration(rng.Intn(1000))*time.Millisecond)
		}
		if n := s.pending(); n != len(timers) {
			t.Fatalf("%d deadlines pending, want %d", n, len(timers))
		}
		for _, i := range rng.Perm(len(timers)) {
			if !timers[i].Stop() {
				t.Fatalf("timer %d was not pending", i)
			}
		}
		if n := s.pending(); n != 0 {
			t.Fatalf("%d deadlines pending after every timer was stopped", n)
		}
		s.mu.Lock()
		armed := !s.armed.IsZero()
		s.mu.Unlock()
		if armed {
			t.Error("source left armed with nothing pending")
		}
	})
}

// TestHRTimerStopResetRaceFire runs owners that stop and re-arm deadlines
// right around their fire time (run with -race). After Stop returns nothing
// may arrive; after Reset returns only that Reset's deadline may.
func TestHRTimerStopResetRaceFire(t *testing.T) {
	eachService(t, func(t *testing.T, s *service) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				tm := s.timer()
				for i := 0; i < 300; i++ {
					d := Floor + time.Duration(rng.Intn(60))*time.Microsecond
					tm.Reset(d)
					time.Sleep(time.Duration(rng.Intn(120)) * time.Microsecond)
					if i%2 == 0 {
						tm.Stop()
						select {
						case due := <-tm.C:
							t.Errorf("received a fire (deadline %v ago) after Stop returned", time.Since(due))
							return
						default:
						}
						continue
					}
					t0 := time.Now()
					tm.Reset(d)
					select {
					case due := <-tm.C:
						if due.Before(t0) {
							t.Error("received the fire of a deadline Reset had replaced")
							return
						}
					case <-time.After(5 * time.Second):
						t.Error("re-armed timer never fired")
						return
					}
				}
				tm.Stop()
			}(int64(g))
		}
		wg.Wait()
		if n := s.pending(); n != 0 {
			t.Errorf("%d deadlines pending after every owner stopped", n)
		}
	})
}

// brokenSource fails its first wait, as a timerfd the poller refused would.
type brokenSource struct{ runtimeSource }

func (b *brokenSource) wait() error { return errors.New("not pollable") }

// TestHRTimerFallsBackWhenSourceFails: a source whose wait fails is replaced
// by the runtime-timer source without losing the deadlines already armed.
func TestHRTimerFallsBackWhenSourceFails(t *testing.T) {
	s := &service{}
	s.start.Do(func() { s.run(&brokenSource{*newRuntimeSource()}) })
	tm := s.timer()
	tm.Reset(time.Millisecond)
	mustFire(t, tm, 5*time.Second)
	s.mu.Lock()
	_, ok := s.src.(*runtimeSource)
	s.mu.Unlock()
	if !ok {
		t.Error("service still on the failed source")
	}
	tm.Reset(time.Millisecond)
	mustFire(t, tm, 5*time.Second)
}

package papi

import (
	"testing"
	"time"

	"crane/internal/simnet"
)

// TestParrotNowDeterministic: the same program observes identical Now()
// values at identical execution points across runs (§6.1 extension).
func TestParrotNowDeterministic(t *testing.T) {
	run := func() []time.Time {
		net := simnet.New(simnet.Options{})
		p := NewParrotProc(net, "s", nil)
		var stamps []time.Time
		done := make(chan struct{})
		p.Start(FuncInstance{Main: func(tt T) {
			m := tt.NewMutex()
			for i := 0; i < 5; i++ {
				m.Lock(tt)
				m.Unlock(tt)
				stamps = append(stamps, tt.Now())
			}
			close(done)
		}})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("program hung")
		}
		p.Kill()
		p.Wait()
		return stamps
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("stamps = %d, %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("Now diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Time advances with the logical clock.
	if !a[4].After(a[0]) {
		t.Fatal("deterministic time did not advance")
	}
	if a[0].Before(DetEpoch) {
		t.Fatal("time before epoch")
	}
}

// TestParrotNowIgnoresIdleTicks: between a thread's turns the idle thread
// keeps ticking the lane clock in physical time, so Now must read the clock
// stamped at the caller's own last operation. The program runs twice, once
// calling Now at once and once after waiting, outside any turn, until the
// live clock has passed that stamp; both runs must see the same times.
func TestParrotNowIgnoresIdleTicks(t *testing.T) {
	run := func(wait bool) []time.Time {
		net := simnet.New(simnet.Options{})
		p := NewParrotProc(net, "s", nil)
		var stamps []time.Time
		done := make(chan struct{})
		p.Start(FuncInstance{Main: func(tt T) {
			m := tt.NewMutex()
			for i := 0; i < 5; i++ {
				m.Lock(tt)
				m.Unlock(tt)
				if wait {
					stamp := tt.(*parrotT).th.LaneClock()
					deadline := time.Now().Add(time.Second)
					for p.Sched.Stats().Clock <= stamp && time.Now().Before(deadline) {
						time.Sleep(20 * time.Microsecond)
					}
				}
				stamps = append(stamps, tt.Now())
			}
			close(done)
		}})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("program hung")
		}
		p.Kill()
		p.Wait()
		return stamps
	}
	a, b := run(false), run(true)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("Now after idle ticks diverged at %d: %v at once vs %v after waiting", i, a[i], b[i])
		}
	}
}

// TestNondetNowIsPhysical: the baseline returns wall-clock time.
func TestNondetNowIsPhysical(t *testing.T) {
	net := simnet.New(simnet.Options{})
	p := NewNondetProc(net, "s", nil)
	got := make(chan time.Time, 1)
	p.Start(FuncInstance{Main: func(tt T) { got <- tt.Now() }})
	defer p.Kill()
	select {
	case ts := <-got:
		if d := time.Since(ts); d < 0 || d > time.Minute {
			t.Fatalf("nondet Now improbable: %v", ts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}
